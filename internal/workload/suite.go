package workload

import (
	"fmt"
	"strings"

	"genedit/internal/decompose"
	"genedit/internal/eval"
	"genedit/internal/knowledge"
	"genedit/internal/schema"
	"genedit/internal/sqldb"
	"genedit/internal/sqlexec"
	"genedit/internal/task"
)

// Eval-set sizes: the exact denominators implied by the paper's reported
// percentages (65/93 = 69.89%, 11/28 = 39.29%, 4/11 = 36.36%).
const (
	SimpleCount      = 93
	ModerateCount    = 28
	ChallengingCount = 11
)

// Suite is the full mini-BIRD benchmark: databases, eval cases, knowledge
// inputs per database, and the question registry the simulated model uses.
type Suite struct {
	Seed      uint64
	Databases map[string]*sqldb.Database
	Schemas   map[string]*schema.Schema
	Cases     []*task.Case
	// KB holds pre-processing inputs (query logs + documents) per database.
	KB map[string]knowledge.BuildInput
	// Registry resolves questions to cases for the simulated model.
	Registry *task.Registry
}

// NewSuite generates the standard benchmark with the given seed.
func NewSuite(seed uint64) *Suite {
	s := &Suite{
		Seed:      seed,
		Databases: make(map[string]*sqldb.Database, len(domains)),
		Schemas:   make(map[string]*schema.Schema, len(domains)),
		KB:        make(map[string]knowledge.BuildInput, len(domains)),
	}

	var simple, moderate, challenging [][]*task.Case
	for i := range domains {
		d := &domains[i]
		db := buildDatabase(d, seed)
		s.Databases[d.DB] = db
		s.Schemas[d.DB] = schema.FromDatabase(db, schema.DefaultTopValues)

		// Only the first two domains keep their change-term jargon on the
		// challenging tier; the rest spell the computation out, matching
		// the paper's ablation profile (challenging EX is complexity-bound,
		// not instruction-bound).
		termGated := i == 0
		simple = append(simple, d.simpleCases())
		moderate = append(moderate, d.moderateCases())
		challenging = append(challenging, d.challengingCases(termGated))

		s.KB[d.DB] = knowledge.BuildInput{
			Schema: s.Schemas[d.DB],
			Logs:   d.logEntries(),
			Docs:   []knowledge.Document{d.document()},
		}
	}

	s.Cases = append(s.Cases, interleave(simple, SimpleCount)...)
	s.Cases = append(s.Cases, interleave(moderate, ModerateCount)...)
	s.Cases = append(s.Cases, interleave(challenging, ChallengingCount)...)

	for _, c := range s.Cases {
		s.finalizeCase(c)
	}
	s.Registry = task.NewRegistry(s.Cases)
	return s
}

// interleave draws cases template-by-template across domains (round-robin)
// and truncates to n, so every domain contributes evenly to the eval set.
func interleave(perDomain [][]*task.Case, n int) []*task.Case {
	var out []*task.Case
	maxLen := 0
	for _, cases := range perDomain {
		if len(cases) > maxLen {
			maxLen = len(cases)
		}
	}
	for i := 0; i < maxLen; i++ {
		for _, cases := range perDomain {
			if i < len(cases) {
				out = append(out, cases[i])
			}
		}
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// finalizeCase computes the derived fields: needed schema elements and the
// decomposed step count.
func (s *Suite) finalizeCase(c *task.Case) {
	sch := s.Schemas[c.DB]
	c.Needed = neededElements(c.GoldSQL, sch)
	frags, err := decompose.DecomposeSQL(c.GoldSQL)
	if err != nil {
		panic(fmt.Sprintf("case %s: gold SQL does not decompose: %v", c.ID, err))
	}
	c.Steps = len(frags)
}

// neededElements scans SQL text for the schema columns it references.
func neededElements(sql string, s *schema.Schema) []schema.Element {
	padded := " " + strings.ToUpper(wordsOnly(sql)) + " "
	var out []schema.Element
	for _, t := range s.Tables {
		if !strings.Contains(padded, " "+strings.ToUpper(t.Name)+" ") {
			continue
		}
		for _, c := range t.Columns {
			if strings.Contains(padded, " "+strings.ToUpper(c.Name)+" ") {
				out = append(out, schema.Element{Table: t.Name, Column: c.Name})
			}
		}
	}
	return out
}

func wordsOnly(s string) string {
	out := []byte(s)
	for i := 0; i < len(out); i++ {
		c := out[i]
		isWord := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !isWord {
			out[i] = ' '
		}
	}
	return string(out)
}

// CasesByDifficulty filters the eval set.
func (s *Suite) CasesByDifficulty(d task.Difficulty) []*task.Case {
	var out []*task.Case
	for _, c := range s.Cases {
		if c.Difficulty == d {
			out = append(out, c)
		}
	}
	return out
}

// Golden picks a database's regression suite: its first n cases in suite
// order (fewer when the database has fewer).
func (s *Suite) Golden(db string, n int) []*task.Case {
	var out []*task.Case
	for _, c := range s.Cases {
		if len(out) == n {
			break
		}
		if c.DB == db {
			out = append(out, c)
		}
	}
	return out
}

// BuildKnowledge runs the pre-processing phase for one database, returning
// its company-specific knowledge set.
func (s *Suite) BuildKnowledge(db string) (*knowledge.Set, error) {
	in, ok := s.KB[db]
	if !ok {
		return nil, fmt.Errorf("unknown database %q", db)
	}
	return knowledge.Build(in)
}

// Executor returns an executor over the named database.
func (s *Suite) Executor(db string) (*sqlexec.Executor, error) {
	d, ok := s.Databases[db]
	if !ok {
		return nil, fmt.Errorf("unknown database %q", db)
	}
	return sqlexec.New(d), nil
}

// ValidateGold executes every case's gold SQL and every wrong variant,
// checking that gold runs and that each wrong variant produces a different
// result. The workload's honesty depends on this property: a knowledge gap
// must be observable through execution accuracy.
func (s *Suite) ValidateGold() error {
	for _, c := range s.Cases {
		exec, err := s.Executor(c.DB)
		if err != nil {
			return err
		}
		gold, err := exec.Query(c.GoldSQL)
		if err != nil {
			return fmt.Errorf("case %s: gold SQL failed: %w", c.ID, err)
		}
		if len(gold.Rows) == 0 {
			return fmt.Errorf("case %s: gold SQL returned no rows", c.ID)
		}
		check := func(kind, wrongSQL string) error {
			if wrongSQL == "" {
				return nil
			}
			wrong, err := exec.Query(wrongSQL)
			if err != nil {
				return fmt.Errorf("case %s: %s wrong variant failed to execute: %w", c.ID, kind, err)
			}
			if eval.ResultsEqual(gold, wrong) {
				return fmt.Errorf("case %s: %s wrong variant is indistinguishable from gold", c.ID, kind)
			}
			return nil
		}
		for _, tr := range c.Terms {
			if err := check("term "+tr.Term, tr.WrongSQL); err != nil {
				return err
			}
		}
		for _, dr := range c.Decoys {
			if err := check("decoy "+dr.DecoyColumn, dr.WrongSQL); err != nil {
				return err
			}
		}
	}
	return nil
}

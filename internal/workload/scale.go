package workload

import (
	"fmt"

	"genedit/internal/knowledge"
	"genedit/internal/schema"
	"genedit/internal/sqldb"
	"genedit/internal/task"
)

// ScaleConfig sizes a stress-scale suite (NewScaledSuite). The standard
// benchmark is 8 databases with ~30 decomposed examples each; the ROADMAP's
// 100x hardening item needs two orthogonal multipliers:
//
//   - DBFactor clones every domain into that many tenant databases. Clones
//     share schema vocabulary but get distinct names, distinct seeded data
//     (the row noise is salted with the database name) and their own
//     knowledge sets — DBFactor 100 is the 100x database/case suite.
//   - KnowledgeFactor multiplies each database's query log with parameter
//     variants (different regions, months, thresholds, limits), growing the
//     per-engine example index — the scale at which the cost of retrieval,
//     which scores every indexed example once per request, is measurable.
type ScaleConfig struct {
	DBFactor        int
	KnowledgeFactor int
}

// NewScaledSuite generates a stress-scale variant of the benchmark. Unlike
// NewSuite it keeps every generated case (no eval-set truncation), so case
// count scales with DBFactor. Factors < 1 are treated as 1; {1, 1} yields
// the standard domains with the standard knowledge (but the full case set).
func NewScaledSuite(seed uint64, sc ScaleConfig) *Suite {
	if sc.DBFactor < 1 {
		sc.DBFactor = 1
	}
	if sc.KnowledgeFactor < 1 {
		sc.KnowledgeFactor = 1
	}
	nDB := len(domains) * sc.DBFactor
	s := &Suite{
		Seed:      seed,
		Databases: make(map[string]*sqldb.Database, nDB),
		Schemas:   make(map[string]*schema.Schema, nDB),
		KB:        make(map[string]knowledge.BuildInput, nDB),
	}

	for f := 0; f < sc.DBFactor; f++ {
		for i := range domains {
			d := domains[i] // value copy; clones only change the DB name
			if f > 0 {
				d.DB = fmt.Sprintf("%s_x%03d", d.DB, f)
			}
			db := buildDatabase(&d, seed)
			s.Databases[d.DB] = db
			s.Schemas[d.DB] = schema.FromDatabase(db, schema.DefaultTopValues)

			termGated := i == 0
			s.Cases = append(s.Cases, d.simpleCases()...)
			s.Cases = append(s.Cases, d.moderateCases()...)
			s.Cases = append(s.Cases, d.challengingCases(termGated)...)

			logs := d.logEntries()
			logs = append(logs, d.variantLogEntries(sc.KnowledgeFactor)...)
			s.KB[d.DB] = knowledge.BuildInput{
				Schema: s.Schemas[d.DB],
				Logs:   logs,
				Docs:   []knowledge.Document{d.document()},
			}
		}
	}

	for _, c := range s.Cases {
		s.finalizeCase(c)
	}
	s.Registry = task.NewRegistry(s.Cases)
	return s
}

// variantLogEntries fabricates (factor-1) extra rounds of query-log history:
// parameter variants — region, month, year, threshold, limit — of the
// standard log templates, the way a production log accretes the same
// analyses re-run with different filters. Every variant question is
// distinct, so each contributes distinct vectors to the retrieval index.
func (d *domainSpec) variantLogEntries(factor int) []knowledge.LogEntry {
	fa := d.FactA
	var out []knowledge.LogEntry
	add := func(id, question, sql, intent string, terms ...string) {
		out = append(out, knowledge.LogEntry{
			ID: d.DB + "-" + id, Question: question, SQL: sql,
			IntentName: intent, Terms: terms,
		})
	}
	for v := 1; v < factor; v++ {
		region := d.Regions[v%len(d.Regions)]
		year := 2022 + v%2
		month := months[v%len(months)][:7] // "YYYY-MM"
		limit := 2 + v%6
		threshold := 820 + 9*(v%23)

		add(fmt.Sprintf("log-v%d-top", v),
			fmt.Sprintf("top %d %ss by total %s in %s for %d", limit, d.EntityNoun, d.MetricNoun, region, year),
			fmt.Sprintf("SELECT %s, SUM(%s) AS TOTAL FROM %s WHERE %s = '%s' AND %s GROUP BY %s ORDER BY TOTAL DESC LIMIT %d",
				d.EntityCol, fa.Metric, fa.Table, d.RegionCol, region, yearIs(fa.DateCol, year), d.EntityCol, limit),
			d.IntentPerformance)

		add(fmt.Sprintf("log-v%d-list", v),
			fmt.Sprintf("%ss with %s above %d in %s", d.EntityNoun, d.MetricNoun, threshold, month),
			fmt.Sprintf("SELECT DISTINCT %s FROM %s WHERE %s > %d AND %s = '%s' ORDER BY %s",
				d.EntityCol, fa.Table, fa.Metric, threshold, monthExpr(fa.DateCol), month, d.EntityCol),
			d.IntentPerformance)

		add(fmt.Sprintf("log-v%d-avg", v),
			fmt.Sprintf("average %s in %s during %s", d.MetricNoun, region, month),
			fmt.Sprintf("SELECT AVG(%s) AS AVG_VALUE FROM %s WHERE %s = '%s' AND %s = '%s'",
				fa.Metric, fa.Table, d.RegionCol, region, monthExpr(fa.DateCol), month),
			d.IntentPerformance)

		add(fmt.Sprintf("log-v%d-adj", v),
			fmt.Sprintf("%s per %s in %s for %d", d.AdjTerm, d.EntityNoun, region, year),
			fmt.Sprintf(
				"SELECT %s, SUM(CASE WHEN %s <> '%s' THEN %s * %s ELSE 0 END) AS ADJUSTED FROM %s WHERE %s = '%s' AND %s GROUP BY %s ORDER BY %s",
				d.EntityCol, d.CategoryCol, d.AdjExcluded, fa.Metric, d.AdjFactor, fa.Table,
				d.RegionCol, region, yearIs(fa.DateCol, year), d.EntityCol, d.EntityCol),
			d.IntentPerformance, d.AdjTerm)

		add(fmt.Sprintf("log-v%d-segment", v),
			fmt.Sprintf("total %s by %s in %s for %d", d.MetricNoun, d.SegmentCol, region, year),
			fmt.Sprintf(
				"SELECT d.%s, SUM(f.%s) AS TOTAL FROM %s f JOIN %s d ON f.%s = d.%s WHERE f.%s = '%s' AND %s GROUP BY d.%s ORDER BY d.%s",
				d.SegmentCol, fa.Metric, fa.Table, d.DimTable, d.EntityCol, d.EntityCol,
				d.RegionCol, region, yearIs("f."+fa.DateCol, year), d.SegmentCol, d.SegmentCol),
			d.IntentPerformance)
	}
	return out
}

// Quickstart: build the benchmark suite, wrap it in the serving facade, and
// generate SQL for a natural-language question through the full GenEdit
// pipeline. The Service builds each database's engine (the pre-processing
// phase: knowledge-set construction from query logs and documents) lazily on
// first use and shares it across all subsequent — including concurrent —
// requests.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"genedit"
)

func main() {
	// The suite is the synthetic mini-BIRD benchmark: eight enterprise
	// databases with query logs and terminology documents per database.
	suite := genedit.NewBenchmark(1)

	// The service is configured with functional options instead of
	// positional arguments; every knob has a production default.
	svc := genedit.NewService(suite, genedit.WithModelSeed(42))

	// Requests carry a context: deadlines and cancellation propagate into
	// the pipeline between operators and regeneration attempts.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	question := "which stores recorded net sales above 1200 in 2023-05"
	resp, err := svc.Generate(ctx, genedit.Request{
		Database: "retail_chain",
		Question: question,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("question:    ", question)
	fmt.Println("reformulated:", resp.Record.Reformulated)
	fmt.Println("intents:     ", strings.Join(resp.Record.IntentNames, ", "))
	fmt.Println("sql:         ", resp.SQL)
	if resp.OK && resp.Record.Result != nil {
		fmt.Println("rows:")
		for _, row := range resp.Record.Result.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Println("  ", strings.Join(cells, " | "))
		}
	}

	// Batch generation fans out over the service's bounded worker pool;
	// responses are input-ordered and per-request failures are typed.
	batch, err := svc.GenerateBatch(ctx, []genedit.Request{
		{Database: "retail_chain", Question: "how many stores are in the Midwest region"},
		{Database: "sports_holdings", Question: "top 5 sports organisations by total revenue in Canada for 2023"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbatch:")
	for _, r := range batch {
		if r.Err != nil {
			fmt.Printf("  [%s] error: %v\n", r.Database, r.Err)
			continue
		}
		fmt.Printf("  [%s] %s\n", r.Database, r.SQL)
	}

	// The knowledge set built during pre-processing is inspectable: the
	// library view of §4.2.2.
	engine, err := svc.Engine(ctx, "retail_chain")
	if err != nil {
		log.Fatal(err)
	}
	st := engine.KnowledgeSet().Stats()
	fmt.Printf("\nknowledge set: %d decomposed examples, %d instructions, %d intents\n",
		st.Examples, st.Instructions, st.Intents)
}

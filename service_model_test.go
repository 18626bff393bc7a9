package genedit

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// modelPointer reads, through unexported fields, the address of the
// simulated model a solver's recommender or an engine calls: path names the
// fields from v down to the interface-typed model field.
func modelPointer(t *testing.T, v any, path ...string) uintptr {
	t.Helper()
	cur := reflect.ValueOf(v)
	for _, name := range path {
		for cur.Kind() == reflect.Pointer || cur.Kind() == reflect.Interface {
			cur = cur.Elem()
		}
		cur = cur.FieldByName(name)
		if !cur.IsValid() {
			t.Fatalf("%T has no field path %v", v, path)
		}
	}
	return cur.Elem().Pointer()
}

// TestSolversShareTheServiceModel: every solver's recommender and every
// engine run on the service's one model, so the model's gold-fragment memo
// is warm for the whole life of the service, not per Solver call. Solvers
// are requested from 8 goroutines at once (run under -race).
func TestSolversShareTheServiceModel(t *testing.T) {
	svc := NewService(NewBenchmark(1))
	defer svc.Close()
	ctx := context.Background()
	want := reflect.ValueOf(svc.model).Pointer()

	dbs := svc.Databases()
	solvers := make([]*Solver, 8)
	var wg sync.WaitGroup
	for g := range solvers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := svc.Solver(ctx, dbs[g%2], nil)
			if err != nil {
				t.Error(err)
				return
			}
			solvers[g] = s
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g, s := range solvers {
		if got := modelPointer(t, s, "recommender", "model"); got != want {
			t.Errorf("solver %d recommends with model %#x, the service's is %#x", g, got, want)
		}
		if got := modelPointer(t, s.Engine(), "model"); got != want {
			t.Errorf("solver %d's engine generates with model %#x, the service's is %#x", g, got, want)
		}
	}
}

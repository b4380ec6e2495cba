package workload

import (
	"reflect"
	"testing"

	"parulel/internal/core"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/match/treat"
	"parulel/internal/programs"
)

// matrixConfigs samples the engine configuration space: the object-level
// matchers. Every engine fires on one goroutine, hence the "w1" in the
// configuration names.
func matrixConfigs() []core.Options {
	return []core.Options{
		{Matcher: rete.New, MaxCycles: 1 << 16},
		{Matcher: treat.New, MaxCycles: 1 << 16},
	}
}

func configName(o core.Options) string {
	matcher := "rete"
	if reflect.ValueOf(o.Matcher).Pointer() == reflect.ValueOf(match.Factory(treat.New)).Pointer() {
		matcher = "treat"
	}
	return "w1-" + matcher
}

// TestConfigurationMatrix runs every workload under every sampled
// configuration and validates the domain invariants.
func TestConfigurationMatrix(t *testing.T) {
	for _, opts := range matrixConfigs() {
		opts := opts
		t.Run(configName(opts), func(t *testing.T) {
			// alexsys: valid maximal allocation, no conflicts.
			e := core.New(loadOK(t, programs.Alexsys), opts)
			if err := Alexsys(e, 25, 20, 11); err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.WriteConflicts != 0 {
				t.Errorf("alexsys: conflicts = %d", res.WriteConflicts)
			}
			checkAlexsys(t, e.Memory())

			// waltz: complete labeling.
			e = core.New(loadOK(t, programs.Waltz), opts)
			if err := WaltzScene(e, 4); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			checkWaltz(t, e.Memory(), 4)

			// closure: exact transitive closure.
			e = core.New(loadOK(t, programs.Closure), opts)
			if err := LayeredDAG(e, 4, 3, 2, 5); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			checkClosure(t, e.Memory())

			// manners: valid seating.
			e = core.New(loadOK(t, programs.Manners), opts)
			if err := Manners(e, 8, 2, 5, 2); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			checkManners(t, e.Memory(), 8)

			// life: matches the reference simulator.
			e = core.New(loadOK(t, programs.Life), opts)
			start := LifeRandom(5, 5, 0.4, 9)
			if err := LifeGrid(e, 5, 5, start, 3); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			got := LifeBoard(e.Memory().OfTemplate("cell"))
			want := LifeReference(5, 5, start, 3)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("life diverged from reference: %v vs %v", got, want)
			}
		})
	}
}

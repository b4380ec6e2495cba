package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"parulel/internal/core"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/match/treat"
	"parulel/internal/programs"
)

// RuleProfiles runs each suite workload with per-rule profiling enabled
// and prints where match time goes rule by rule — the offline companion
// to the server's /metrics per-rule series (docs/OBSERVABILITY.md).
// Rules beyond `top` per (workload, matcher) are folded into one
// remainder row so hot rules stay readable on wide programs.
func RuleProfiles(w io.Writer, quick bool, top int) error {
	if top <= 0 {
		top = 10
	}
	matchers := []struct {
		name    string
		factory match.Factory
	}{
		{"rete", rete.Factory(rete.Options{Profile: true})},
		{"treat", treat.Factory(treat.Options{Profile: true})},
	}
	for wi, spec := range suite(quick) {
		if wi > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s — per-rule match attribution\n", spec.name)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "matcher\trule\tmatch-ms\tmatch%\ttokens\tprobes\tinsts\tfires\t")
		var footers []string
		for _, m := range matchers {
			prog, err := programs.Load(spec.prog)
			if err != nil {
				return err
			}
			e := core.New(prog, core.Options{Workers: 4, Matcher: m.factory, MaxCycles: 1 << 20})
			if err := spec.load(e); err != nil {
				return err
			}
			// Step by step, to catch the meta level at its largest: the
			// images of the eligible instantiations, once per meta-pattern
			// memory holding them, which is all it keeps.
			peak := 0
			for {
				progress, err := e.Step()
				if err != nil {
					return err
				}
				_, meta := e.MemStats()
				peak = max(peak, meta.AlphaItems)
				if !progress {
					break
				}
			}
			if prog.Meta != nil {
				footers = append(footers, fmt.Sprintf("%s meta level at its peak: %d images in pattern memories, no tokens, no stored meta-matches",
					m.name, peak))
			}
			profs := e.RuleProfiles()
			var totalNS int64
			for _, p := range profs {
				totalNS += p.MatchNS
			}
			pct := func(ns int64) float64 {
				if totalNS == 0 {
					return 0
				}
				return 100 * float64(ns) / float64(totalNS)
			}
			shown := profs
			if len(shown) > top {
				shown = shown[:top]
			}
			for _, p := range shown {
				fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.1f\t%d\t%d\t%d\t%d\t\n",
					m.name, p.Rule, float64(p.MatchNS)/1e6, pct(p.MatchNS),
					p.Tokens, p.Probes, p.Insts, p.Fires)
			}
			if rest := profs[len(shown):]; len(rest) > 0 {
				var agg match.RuleProfile
				for _, p := range rest {
					agg.MatchNS += p.MatchNS
					agg.Tokens += p.Tokens
					agg.Probes += p.Probes
					agg.Insts += p.Insts
					agg.Fires += p.Fires
				}
				fmt.Fprintf(tw, "%s\t(%d more)\t%.2f\t%.1f\t%d\t%d\t%d\t%d\t\n",
					m.name, len(rest), float64(agg.MatchNS)/1e6, pct(agg.MatchNS),
					agg.Tokens, agg.Probes, agg.Insts, agg.Fires)
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		for _, f := range footers {
			fmt.Fprintln(w, f)
		}
	}
	return nil
}

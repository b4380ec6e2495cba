// Command parulel runs PARULEL programs.
//
//	parulel run prog.par              run a program to quiescence
//	parulel run -builtin alexsys      run an embedded example program
//	parulel print prog.par            parse and re-print canonical source
//	parulel list                      list embedded programs
//
// Run flags select the engine (-engine parulel|ops5-lex|ops5-mea), the
// matcher (-matcher rete|treat), cycle limit, and tracing. -trace is for
// the parulel engine only: the OPS5 engines emit no cycle events, so run
// refuses it with them rather than write an empty trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"parulel"
	"parulel/internal/obs"
)

func usage(errW io.Writer) {
	fmt.Fprintf(errW, `usage:
  parulel run [flags] <prog.par>   run a program
  parulel print <prog.par>         parse and pretty-print a program
  parulel list                     list embedded example programs

run flags:
`)
	fs, _ := runFlags(errW)
	fs.PrintDefaults()
}

// traceFlag accepts both the classic boolean form (-trace for a text
// trace on stderr) and a path form (-trace=events.jsonl for structured
// JSONL cycle events). Because it reports IsBoolFlag, the path must be
// attached with '=', not passed as a separate argument.
type traceFlag struct {
	enabled bool
	path    string
}

func (f *traceFlag) String() string {
	if f.path != "" {
		return f.path
	}
	if f.enabled {
		return "true"
	}
	return "false"
}

func (f *traceFlag) Set(s string) error {
	switch s {
	case "true":
		f.enabled, f.path = true, ""
	case "false":
		f.enabled, f.path = false, ""
	default:
		f.enabled, f.path = true, s
	}
	return nil
}

func (f *traceFlag) IsBoolFlag() bool { return true }

type runOpts struct {
	engine    string
	matcher   string
	maxCycles int
	trace     traceFlag
	builtin   string
	noMeta    bool
	stats     bool
	loadWM    string
	dumpWM    string
	explain   bool
	optimize  bool
}

func runFlags(errW io.Writer) (*flag.FlagSet, *runOpts) {
	o := &runOpts{}
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(errW)
	fs.StringVar(&o.engine, "engine", "parulel", "engine: parulel, ops5-lex, ops5-mea")
	fs.StringVar(&o.matcher, "matcher", "rete", "match algorithm: rete, treat")
	fs.IntVar(&o.maxCycles, "max-cycles", 100000, "abort after this many cycles (0 = unlimited)")
	fs.Var(&o.trace, "trace", "print a line per cycle; -trace=FILE.jsonl instead writes structured cycle events as JSONL (parulel engine only)")
	fs.StringVar(&o.builtin, "builtin", "", "run an embedded program instead of a file")
	fs.BoolVar(&o.noMeta, "no-meta", false, "strip meta-rules before running")
	fs.BoolVar(&o.stats, "stats", true, "print run statistics")
	fs.StringVar(&o.loadWM, "wm", "", "load additional facts from a (wm …) snapshot file before running")
	fs.StringVar(&o.dumpWM, "dump-wm", "", "write the final working memory to this file as a (wm …) snapshot")
	fs.BoolVar(&o.explain, "explain", false, "print the final conflict set with bindings")
	fs.BoolVar(&o.optimize, "optimize", false, "apply the join-ordering optimization before running")
	return fs, o
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches the CLI; split from main for testability.
func run(args []string, out, errW io.Writer) int {
	if len(args) < 1 {
		usage(errW)
		return 2
	}
	var err error
	switch args[0] {
	case "run":
		err = cmdRun(args[1:], out, errW)
	case "print":
		err = cmdPrint(args[1:], out, errW)
	case "list":
		for _, n := range parulel.Builtins() {
			fmt.Fprintln(out, n)
		}
	default:
		usage(errW)
		return 2
	}
	if err != nil {
		fmt.Fprintln(errW, "parulel:", err)
		return 1
	}
	return 0
}

func loadProgram(path, builtin string) (*parulel.Program, error) {
	if builtin != "" {
		return parulel.LoadBuiltin(builtin)
	}
	if path == "" {
		return nil, fmt.Errorf("no program file given (or use -builtin)")
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parulel.Parse(string(src))
}

func cmdRun(args []string, out, errW io.Writer) error {
	fs, o := runFlags(errW)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prog, err := loadProgram(fs.Arg(0), o.builtin)
	if err != nil {
		return err
	}
	if o.noMeta {
		if prog, err = prog.WithoutMetaRules(); err != nil {
			return err
		}
	}
	if o.optimize {
		if prog, err = prog.Optimize(); err != nil {
			return err
		}
	}
	engine, err := parulel.ParseEngineKind(o.engine)
	if err != nil {
		return err
	}
	if o.trace.enabled && engine != parulel.Parulel {
		return fmt.Errorf("-trace is for the parulel engine only; -engine %s emits no cycle events", engine)
	}
	matcher, err := parulel.ParseMatcherKind(o.matcher)
	if err != nil {
		return err
	}
	cfg := parulel.Config{
		Engine:    engine,
		Matcher:   matcher,
		Output:    out,
		MaxCycles: o.maxCycles,
	}
	var traceFile *os.File
	var traceJSONL *obs.JSONLWriter
	if o.trace.enabled {
		if o.trace.path == "" {
			cfg.Trace = errW
		} else {
			traceFile, err = os.Create(o.trace.path)
			if err != nil {
				return err
			}
			defer traceFile.Close()
			traceJSONL = obs.NewJSONLWriter(traceFile)
			cfg.Tracer = traceJSONL
		}
	}
	eng := parulel.NewEngine(prog, cfg)
	if o.loadWM != "" {
		f, err := os.Open(o.loadWM)
		if err != nil {
			return err
		}
		n, err := eng.LoadWM(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(errW, "loaded %d facts from %s\n", n, o.loadWM)
	}
	res, err := eng.Run()
	if err != nil {
		return err
	}
	if traceJSONL != nil {
		if err := traceJSONL.Err(); err != nil {
			return fmt.Errorf("writing %s: %w", o.trace.path, err)
		}
		if err := traceFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(errW, "structured trace written to %s\n", o.trace.path)
	}
	if o.explain {
		if err := eng.Explain(errW); err != nil {
			return err
		}
	}
	if o.dumpWM != "" {
		f, err := os.Create(o.dumpWM)
		if err != nil {
			return err
		}
		if err := eng.DumpWM(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if o.stats {
		fmt.Fprintf(errW, "engine=%s matcher=%s cycles=%d firings=%d redactions=%d conflicts=%d halted=%v\n",
			engine, matcher, res.Cycles, res.Firings, res.Redactions, res.WriteConflicts, res.Halted)
		fmt.Fprintf(errW, "phases: match %.1f%%  redact %.1f%%  fire %.1f%%  apply %.1f%%\n",
			res.MatchPct, res.RedactPct, res.FirePct, res.ApplyPct)
	}
	return nil
}

func cmdPrint(args []string, out, errW io.Writer) error {
	fs := flag.NewFlagSet("print", flag.ContinueOnError)
	fs.SetOutput(errW)
	builtin := fs.String("builtin", "", "print an embedded program")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prog, err := loadProgram(fs.Arg(0), *builtin)
	if err != nil {
		return err
	}
	fmt.Fprint(out, prog.Source())
	return nil
}

// Package programs embeds the PARULEL rule programs used by the examples,
// the test suite and the benchmark harness, and provides compiled access
// to them.
package programs

import (
	"embed"
	"fmt"

	"parulel/internal/compile"
	"parulel/internal/lang"
)

//go:embed src/*.par
var sources embed.FS

// Names of the embedded programs.
const (
	Quickstart = "quickstart"
	Alexsys    = "alexsys"
	Waltz      = "waltz"
	Closure    = "closure"
	Manners    = "manners"
	Life       = "life"
	Circuit    = "circuit"
)

// All lists the embedded program names.
func All() []string {
	return []string{Quickstart, Alexsys, Waltz, Closure, Manners, Life, Circuit}
}

// Source returns the raw PARULEL source of a named program.
func Source(name string) (string, error) {
	b, err := sources.ReadFile("src/" + name + ".par")
	if err != nil {
		return "", fmt.Errorf("programs: unknown program %q", name)
	}
	return string(b), nil
}

// Load parses and compiles a named program. Each call returns a fresh
// compiled program (compiled programs are immutable, but rule Index
// values are per-program, so sharing across differently composed programs
// would be confusing).
func Load(name string) (*compile.Program, error) {
	src, err := Source(name)
	if err != nil {
		return nil, err
	}
	p, err := compile.CompileSource(src)
	if err != nil {
		return nil, fmt.Errorf("programs: %s: %w", name, err)
	}
	return p, nil
}

// LoadWithoutMetaRules parses a named program, strips its meta-rules, and
// compiles the rest. Experiment E6 uses this to show what parallel firing
// does when redaction is absent.
func LoadWithoutMetaRules(name string) (*compile.Program, error) {
	src, err := Source(name)
	if err != nil {
		return nil, err
	}
	ast, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("programs: %s: %w", name, err)
	}
	ast.MetaRules = nil
	p, err := compile.Compile(ast)
	if err != nil {
		return nil, fmt.Errorf("programs: %s: %w", name, err)
	}
	return p, nil
}

// AST returns the parsed (uncompiled) form of a named program, for
// source-to-source tools such as the join-ordering pass (internal/reorder).
func AST(name string) (*lang.Program, error) {
	src, err := Source(name)
	if err != nil {
		return nil, err
	}
	ast, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("programs: %s: %w", name, err)
	}
	return ast, nil
}

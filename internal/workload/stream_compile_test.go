package workload_test

import (
	"testing"

	"parulel/internal/compile"
	"parulel/internal/workload"
)

func TestStreamProgramsCompile(t *testing.T) {
	for name, src := range map[string]string{
		"fraud": workload.FraudStreamProgram,
	} {
		if _, err := compile.CompileSource(src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

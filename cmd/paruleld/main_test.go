package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the daemon's main in a child process: the test
// binary re-executed with PARULELD_TEST_MAIN set.
func TestMain(m *testing.M) {
	if os.Getenv("PARULELD_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestQuietKeepsFatalErrors: -quiet silences per-event logging, not the
// reason the daemon refused to start.
func TestQuietKeepsFatalErrors(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-quiet", "-fsync", "bogus")
	cmd.Env = append(os.Environ(), "PARULELD_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("paruleld -quiet -fsync bogus: %v, want exit status 1", err)
	}
	if !strings.Contains(stderr.String(), "bad -fsync policy") || !strings.Contains(stderr.String(), "bogus") {
		t.Errorf("stderr does not say why it exited: %q", stderr.String())
	}
}

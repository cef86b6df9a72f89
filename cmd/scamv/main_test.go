package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain doubles as the CLI: when SCAMV_CLI_CHILD is set, the test binary
// runs the command with the arguments that follow "--" and exits with its
// status, so tests can check exit codes and output of a real process.
func TestMain(m *testing.M) {
	if os.Getenv("SCAMV_CLI_CHILD") == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"scamv"}, os.Args[i+1:]...)
				break
			}
		}
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// runCLI runs the command in a child process and returns its exit status
// and combined output.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "SCAMV_CLI_CHILD=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &ee):
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("running CLI child: %v", err)
	return 0, ""
}

// TestNegativeCountsAreUsageErrors: a negative -programs or -tests is a
// usage error (exit 2, naming the flag), not a silent "unset" that runs the
// preset campaign size.
func TestNegativeCountsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-exp", "mct-a", "-programs", "-3"}, "-programs -3"},
		{[]string{"-exp", "mct-a", "-tests", "-1"}, "-tests -1"},
	} {
		code, out := runCLI(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", tc.args, code, out)
		}
		if !strings.Contains(out, tc.flag+": must not be negative") {
			t.Errorf("%v: output does not name the bad flag:\n%s", tc.args, out)
		}
		if strings.Contains(out, "== Table 1") {
			t.Errorf("%v: a campaign ran despite the usage error:\n%s", tc.args, out)
		}
	}
}

package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: the test binary re-executes
// itself with WLSLINT_MAIN=1, and main gets the remaining arguments.
func TestMain(m *testing.M) {
	if os.Getenv("WLSLINT_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// wlslint runs the command with args in this package's directory and
// returns its stderr and exit status.
func wlslint(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"--"}, args...)...)
	cmd.Env = append(os.Environ(), "WLSLINT_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return stderr.String(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return stderr.String(), 0
}

// A typo'd pattern must not pass as a clean run: it fails and names the
// pattern, alone or beside one that matches.
func TestPatternMatchingNothingFails(t *testing.T) {
	for _, args := range [][]string{{"./no-such-dir"}, {".", "./no-such-dir/..."}} {
		stderr, code := wlslint(t, args...)
		bad := args[len(args)-1]
		if code == 0 || !strings.Contains(stderr, "no packages match "+bad) {
			t.Errorf("wlslint %v: exit %d, stderr %q; want non-zero and \"no packages match %s\"", args, code, stderr, bad)
		}
	}
}

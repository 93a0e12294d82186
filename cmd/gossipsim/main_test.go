package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestLossOutOfRangeExits: a -loss outside [0,1] is a usage error — the
// command exits 1 with the reason, instead of running with a loss model
// that drops every message.
func TestLossOutOfRangeExits(t *testing.T) {
	if os.Getenv("GOSSIPSIM_RUN_MAIN") == "1" {
		os.Args = []string{"gossipsim", "-n", "200", "-latency", "1ms", "-loss", "2"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestLossOutOfRangeExits$")
	cmd.Env = append(os.Environ(), "GOSSIPSIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("gossipsim -loss 2: err %v, output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "loss probability 2 outside [0,1]") {
		t.Errorf("gossipsim -loss 2 output lacks the reason:\n%s", out)
	}
	if strings.Contains(string(out), "reliability") {
		t.Errorf("gossipsim -loss 2 ran before rejecting the flag:\n%s", out)
	}
}

package main

import (
	"strings"
	"testing"
)

// TestRetiredLanesEngineIsFlagError: the retired 64-lane engine name is a
// usage error naming the engines that remain, never a silent fallback.
func TestRetiredLanesEngineIsFlagError(t *testing.T) {
	err := run([]string{"-exp", "recovery", "-engine", "lanes"})
	if err == nil {
		t.Fatal("-engine lanes was accepted")
	}
	for _, want := range []string{`unknown engine "lanes"`, "scalar, lanes256, lanes512"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

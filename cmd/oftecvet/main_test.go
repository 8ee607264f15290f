package main

import "testing"

// TestRejectsArguments: the driver takes no flags and no package
// patterns; anything on the command line is a usage error.
func TestRejectsArguments(t *testing.T) {
	for _, args := range [][]string{{"./..."}, {"-list"}, {"-h"}} {
		if got := run(args); got != 2 {
			t.Errorf("run(%q) = %d, want 2", args, got)
		}
	}
}

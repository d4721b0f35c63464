package main

import (
	"io"
	"testing"
)

// TestParseFlagsRejectsUnknownExperiments pins the selection rule: only the
// paper's Figs 6–15 and Tables 3–5 exist, and a command line that names
// nothing runnable is an error, not a silent success.
func TestParseFlagsRejectsUnknownExperiments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"-fig", "6"}, true},
		{[]string{"-fig", "15"}, true},
		{[]string{"-table", "3"}, true},
		{[]string{"-table", "5", "-seed", "7"}, true},
		{[]string{"-all"}, true},
		{[]string{"-fig", "13", "-table", "5"}, true},
		{[]string{"-fig", "5"}, false},
		{[]string{"-fig", "16"}, false},
		{[]string{"-fig", "99"}, false},
		{[]string{"-fig", "-1"}, false},
		{[]string{"-table", "2"}, false},
		{[]string{"-table", "6"}, false},
		{[]string{"-table", "7"}, false},
		{[]string{"-all", "-fig", "99"}, false},
		{[]string{}, false},
		{[]string{"-ops", "100"}, false},
		{[]string{"-nosuchflag"}, false},
	} {
		if _, err := parseFlags(tc.args, io.Discard); (err == nil) != tc.ok {
			t.Errorf("parseFlags(%q): err = %v, want ok = %v", tc.args, err, tc.ok)
		}
	}
}

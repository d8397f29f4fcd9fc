package main

import (
	"strings"
	"testing"
)

// TestZeroCallerRule runs the rule over testdata/zerocaller, a module
// with one function of each verdict. Methods resolve by receiver: U.M
// is flagged although T.M, of the same name, is called; D.Do runs only
// through the Doer interface and S.String only through fmt.Stringer,
// while R.Do, of another signature, implements nothing called.
func TestZeroCallerRule(t *testing.T) {
	allow := map[string]string{
		"internal/lib.Allowed": "no caller, exempt",
		"internal/lib.Gone":    "names a function that does not exist",
		"internal/lib.Used":    "names a function that has a caller",
	}
	problems, err := checkCallers("testdata/zerocaller", allow)
	if err != nil {
		t.Fatal(err)
	}
	report := strings.Join(problems, "\n")
	for _, want := range []string{
		"function internal/lib.Dead has no production caller",
		"function internal/lib.TestOnly has no production caller",
		"function internal/lib.Recursive has no production caller",
		"method internal/lib.T.Unused has no production caller",
		"method internal/lib.U.M has no production caller",
		"method internal/lib.R.Do has no production caller",
		"zero-caller allowlist: internal/lib.Gone names",
		"zero-caller allowlist: internal/lib.Used names",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	for _, pass := range []string{"lib.Used has", "lib.helper", "lib.BenchOnly", "lib.Allowed", "lib.T.M ", "lib.D.Do", "lib.S.String"} {
		if strings.Contains(report, pass) {
			t.Errorf("report flags %q:\n%s", pass, report)
		}
	}
	if len(problems) != 8 {
		t.Errorf("%d problems, want 8:\n%s", len(problems), report)
	}
}

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
	problems := checkCallers(loadFixture(t), allow)
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

// TestProductionSetterRule runs the field rule over the same module's
// option structs: a field counts as set by a composite-literal key, an
// assignment (also through one of its own fields: o.Nested.Depth = 2
// sets Nested too), an address taken for flag binding, or bench/; not
// by its own package or its tests. json-tagged fields, unexported fields
// and structs not named *Options or *Config are out of scope.
func TestProductionSetterRule(t *testing.T) {
	allow := map[string]string{
		"internal/lib.RunOptions.Exempt": "no setter, exempt",
		"internal/lib.RunOptions.Gone":   "names a field that does not exist",
		"internal/lib.RunOptions.Keyed":  "names a field that has a setter",
	}
	problems := checkSetters(loadFixture(t), allow)
	report := strings.Join(problems, "\n")
	for _, want := range []string{
		"field internal/lib.RunOptions.Unset has no production setter",
		"field internal/lib.RunOptions.OwnPackage has no production setter",
		"field internal/lib.RunOptions.TestSet has no production setter",
		"field internal/lib.NestedConfig.Width has no production setter",
		"no-setter allowlist: internal/lib.RunOptions.Gone names",
		"no-setter allowlist: internal/lib.RunOptions.Keyed names",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	for _, pass := range []string{"Keyed has", "Assigned", "Bound", "RunOptions.Nested ", "Depth", "BenchSet", "Decoded", "Exempt", "unexported", "Plain"} {
		if strings.Contains(report, pass) {
			t.Errorf("report flags %q:\n%s", pass, report)
		}
	}
	if len(problems) != 6 {
		t.Errorf("%d problems, want 6:\n%s", len(problems), report)
	}
}

// loadFixture type-checks testdata/zerocaller.
func loadFixture(t *testing.T) *loader {
	t.Helper()
	l, err := loadModule("testdata/zerocaller")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

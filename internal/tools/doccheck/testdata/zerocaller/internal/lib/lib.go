// Package lib is the zero-caller rule's fixture: one function of each
// verdict.
package lib

// Used is called from cmd/app.
func Used() int { return helper() }

// helper is called by bare name from Used, in the same directory.
func helper() int { return 1 }

// Dead has no caller at all.
func Dead() {}

// TestOnly is referenced only from lib_test.go.
func TestOnly() {}

// Recursive calls only itself.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// BenchOnly is called only from bench/, which counts as a caller.
func BenchOnly() {}

// Allowed has no caller but an allowlist entry.
func Allowed() {}

// T carries the methods.
type T struct{}

// M is called through a selector in cmd/app.
func (T) M() {}

// Unused has no selector anywhere.
func (*T) Unused() {}

// U has a method named like the called T.M.
type U struct{}

// M shares its name with T.M but is never called itself.
func (U) M() {}

// Doer is called through in cmd/app.
type Doer interface{ Do() }

// D implements Doer; its Do runs only through the interface.
type D struct{}

// Do is reached through Doer.Do.
func (D) Do() {}

// R has a Do of another signature, so it does not implement Doer.
type R struct{}

// Do is not Doer.Do.
func (R) Do(int) {}

// S is printed by the standard library only.
type S struct{}

// String satisfies fmt.Stringer.
func (S) String() string { return "s" }

// RunOptions is an option struct the production-setter rule audits.
type RunOptions struct {
	// Keyed is set by a composite-literal key in cmd/app.
	Keyed int
	// Assigned is assigned in cmd/app.
	Assigned int
	// Bound is bound through its address in cmd/app, as flag.IntVar does.
	Bound int
	// Nested is set through its own field in cmd/app.
	Nested NestedConfig
	// BenchSet is assigned only in bench/, which counts as a setter.
	BenchSet int
	// Unset is set nowhere.
	Unset int
	// OwnPackage is set only inside this package.
	OwnPackage int
	// TestSet is set only from lib_test.go.
	TestSet int
	// Decoded is filled by encoding/json from outside the program.
	Decoded int `json:"decoded"`
	// Exempt is set nowhere but has an allowlist entry.
	Exempt int

	unexported int
}

// NestedConfig is reached only as RunOptions.Nested.
type NestedConfig struct {
	// Depth is assigned through RunOptions.Nested in cmd/app.
	Depth int
	// Width is set nowhere.
	Width int
}

// Plain is not named *Options or *Config, so the rule ignores it.
type Plain struct {
	// Field is set nowhere.
	Field int
}

// Defaults sets OwnPackage from inside the package.
func Defaults() RunOptions { return RunOptions{OwnPackage: 1, unexported: 1} }

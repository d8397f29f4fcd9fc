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

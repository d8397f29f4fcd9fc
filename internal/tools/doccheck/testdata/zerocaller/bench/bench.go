// Package bench is the fixture's read-only benchmark caller.
package bench

import "example.com/zc/internal/lib"

// Run calls into the module.
func Run() {
	lib.BenchOnly()
	var o lib.RunOptions
	o.BenchSet = 1
	_ = o
}

// Command app is the fixture's production caller.
package main

import (
	"flag"
	"fmt"

	zl "example.com/zc/internal/lib"
)

func main() {
	var t zl.T
	t.M()
	var d zl.Doer = zl.D{}
	d.Do()
	fmt.Println(zl.Used())

	o := zl.Defaults()
	o.Assigned++
	flag.IntVar(&o.Bound, "bound", 0, "bound through its address")
	o.Nested.Depth = 2
	fmt.Println(o, zl.RunOptions{Keyed: 1})
}

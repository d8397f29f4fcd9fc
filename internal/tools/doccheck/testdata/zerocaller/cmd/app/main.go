// Command app is the fixture's production caller.
package main

import (
	"fmt"

	zl "example.com/zc/internal/lib"
)

func main() {
	var t zl.T
	t.M()
	var d zl.Doer = zl.D{}
	d.Do()
	fmt.Println(zl.Used())
}

// Command app is the fixture's production caller.
package main

import (
	"fmt"

	zl "example.com/zc/internal/lib"
)

func main() {
	var t zl.T
	t.M()
	fmt.Println(zl.Used())
}

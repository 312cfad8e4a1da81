// Command cmd is the unreached fixture's binary.
package main

import (
	"fmt"

	"wls/internal/lint/testdata/unreached"
)

func main() {
	var s unreached.Shape = unreached.Square{Side: 2}
	fmt.Println(s.Area(), unreached.Square{})
	c := &unreached.Counter{}
	inc := c.Inc
	inc()
	fmt.Println(unreached.Map([]int{1}, func(v int) int { return v + 1 }), unreached.Box[int]{V: 1}.Get())
	unreached.Reached()
	unreached.ByName(s)
	var sz unreached.Sizer = unreached.NewFile("f")
	fmt.Println(sz.Size(), sz.Label())
	unreached.Touch()
	unreached.Link("a", "b")
	fmt.Println(unreached.Same(1, 2), unreached.First())
}

package main

import (
	"fmt"

	"tiny/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(s.Area(), lib.Label{})
	if h, ok := any(lib.Disk{}).(interface{ Healthy() bool }); ok {
		fmt.Println(h.Healthy())
	}
}

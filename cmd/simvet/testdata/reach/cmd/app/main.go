// Command app is the fixture's one binary.
package main

import (
	"fmt"

	"fix/lib"
	"fix/tp"
)

func main() {
	lib.Static()
	var t lib.T
	f := t.Value // a method value
	fmt.Println(f())
	for _, s := range []lib.Shape{lib.Circle{}, lib.Square{}} {
		fmt.Println(s.Area()) // an interface call
	}
	fmt.Println(lib.Red) // String is reached only through fmt
	fmt.Println(lib.ModeA)
	lib.Ref()
	fmt.Println(lib.Records())
	tp.F()
}

// Command run is the program of the guard's fixture.
package main

import (
	"fmt"
	"os"

	"fixture"
	"fixture/internal/a"
)

func main() {
	r := a.Reader{Count: 1}
	w := &a.Writer{}
	w.Count = 2
	var acc a.Acc
	acc.Add(1)
	a.Called{}.Run()
	o := a.DefaultOptions()
	o.Name = os.Args[0]
	fmt.Println(r.Count, o.Level, o.Name, a.Mark(1, 2), a.Smallest([]int{3, 1, 2}), fixture.New(fixture.DefaultConfig()).Width)
}

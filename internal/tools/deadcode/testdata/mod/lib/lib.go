package lib

// Shape is satisfied by Square; main calls Area only through it.
type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

// Label's String is called by fmt, through fmt.Stringer.
type Label struct{}

func (Label) String() string { return "label" }

// Disk's Healthy is called through an anonymous interface.
type Disk struct{}

func (Disk) Healthy() bool { return true }

// Unused has no caller.
func Unused() {}

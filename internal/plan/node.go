package plan

import (
	"fmt"
	"strings"

	"repro/internal/sqlparser"
	"repro/internal/types"
)

// Node is one logical operator in a query plan. Every node maps an input TVR
// (or two) to an output TVR pointwise, except where event-time semantics
// deliberately extend the algebra (watermark-driven grouping and EMIT).
type Node interface {
	// Schema describes the node's output relation, including event-time
	// column alignment metadata.
	Schema() *types.Schema
	// Unbounded reports whether the output relation may keep evolving
	// forever (it scans at least one stream that is not snapshot-bounded).
	Unbounded() bool
	// Children returns the input nodes.
	Children() []Node
	// Describe renders a one-line description of this operator.
	Describe() string
}

// Format renders an indented plan tree for debugging and EXPLAIN output.
func Format(n Node) string {
	var sb strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Describe())
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return sb.String()
}

// Scan reads a catalog relation. AsOf, when non-nil, bounds the scan to the
// relation's snapshot at that processing time (AS OF SYSTEM TIME).
type Scan struct {
	Name   string
	Sch    *types.Schema
	Stream bool
	AsOf   *types.Time
}

// Schema implements Node.
func (s *Scan) Schema() *types.Schema { return s.Sch }

// Unbounded implements Node.
func (s *Scan) Unbounded() bool { return s.Stream && s.AsOf == nil }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Describe implements Node.
func (s *Scan) Describe() string {
	d := "Scan(" + s.Name
	if s.AsOf != nil {
		d += fmt.Sprintf(" AS OF %s", *s.AsOf)
	}
	return d + ")"
}

// Filter keeps rows for which Cond evaluates to TRUE.
type Filter struct {
	Input Node
	Cond  Scalar
}

// Schema implements Node.
func (f *Filter) Schema() *types.Schema { return f.Input.Schema() }

// Unbounded implements Node.
func (f *Filter) Unbounded() bool { return f.Input.Unbounded() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Input} }

// Describe implements Node.
func (f *Filter) Describe() string { return "Filter(" + f.Cond.String() + ")" }

// Project computes one output column per expression.
type Project struct {
	Input Node
	Exprs []Scalar
	Sch   *types.Schema
}

// Schema implements Node.
func (p *Project) Schema() *types.Schema { return p.Sch }

// Unbounded implements Node.
func (p *Project) Unbounded() bool { return p.Input.Unbounded() }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// Describe implements Node.
func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String() + " AS " + p.Sch.Cols[i].Name
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// Join combines two inputs. Equi-join keys (extracted from the conjunctive
// equality predicates of the join condition) index the operator's hash
// state; Residual is the remaining predicate over the concatenated row.
type Join struct {
	Left, Right Node
	Kind        sqlparser.JoinKind
	LeftKeys    []int // column indexes in Left's schema
	RightKeys   []int // column indexes in Right's schema, parallel to LeftKeys
	Residual    Scalar
	Sch         *types.Schema

	// LeftExpiry/RightExpiry, when set by the optimizer, allow the join
	// to free a stored row once the opposite watermark passes the row's
	// event-time column value plus the bound (interval-join cleanup).
	LeftExpiry  *ExpiryBound
	RightExpiry *ExpiryBound
}

// ExpiryBound says rows are dead once watermark >= row[Col] + Bound.
type ExpiryBound struct {
	Col   int
	Bound types.Duration
}

// Schema implements Node.
func (j *Join) Schema() *types.Schema { return j.Sch }

// Unbounded implements Node.
func (j *Join) Unbounded() bool { return j.Left.Unbounded() || j.Right.Unbounded() }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// Describe implements Node.
func (j *Join) Describe() string {
	var sb strings.Builder
	sb.WriteString("Join(" + j.Kind.String())
	for i := range j.LeftKeys {
		fmt.Fprintf(&sb, " L$%d=R$%d", j.LeftKeys[i], j.RightKeys[i])
	}
	if j.Residual != nil {
		sb.WriteString(" residual=" + j.Residual.String())
	}
	if j.LeftExpiry != nil {
		fmt.Fprintf(&sb, " lexp=$%d+%s", j.LeftExpiry.Col, j.LeftExpiry.Bound)
	}
	if j.RightExpiry != nil {
		fmt.Fprintf(&sb, " rexp=$%d+%s", j.RightExpiry.Col, j.RightExpiry.Bound)
	}
	sb.WriteString(")")
	return sb.String()
}

// AggKind enumerates aggregate functions.
type AggKind uint8

// Aggregate function kinds.
const (
	AggSum AggKind = iota
	AggCount
	AggCountStar
	AggAvg
	AggMin
	AggMax
)

func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	case AggCountStar:
		return "COUNT(*)"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	default:
		return "MAX"
	}
}

// AggCall is one aggregate computation.
type AggCall struct {
	Kind     AggKind
	Arg      Scalar // nil for COUNT(*)
	Distinct bool
	K        types.Kind // result kind
}

// Describe renders the call.
func (a AggCall) Describe() string {
	if a.Kind == AggCountStar {
		return "COUNT(*)"
	}
	d := ""
	if a.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", a.Kind, d, a.Arg.String())
}

// Aggregate groups its input by the key expressions and computes the
// aggregate calls per group. Output schema is keys followed by aggregates.
// When the input is unbounded, at least one key must be an event-time column
// (Extension 2); the execution engine uses the watermark to declare groups
// complete, drop late input, and free per-group state.
type Aggregate struct {
	Input Node
	Keys  []Scalar
	Aggs  []AggCall
	Sch   *types.Schema
}

// Schema implements Node.
func (a *Aggregate) Schema() *types.Schema { return a.Sch }

// Unbounded implements Node.
func (a *Aggregate) Unbounded() bool { return a.Input.Unbounded() }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Input} }

// Describe implements Node.
func (a *Aggregate) Describe() string {
	keys := make([]string, len(a.Keys))
	for i, k := range a.Keys {
		keys[i] = k.String()
	}
	aggs := make([]string, len(a.Aggs))
	for i, g := range a.Aggs {
		aggs[i] = g.Describe()
	}
	return "Aggregate(keys=[" + strings.Join(keys, ", ") + "] aggs=[" + strings.Join(aggs, ", ") + "])"
}

// EventKeyIdxs returns the output-schema positions of event-time grouping
// keys (the columns the watermark can complete).
func (a *Aggregate) EventKeyIdxs() []int {
	var out []int
	for i := range a.Keys {
		if a.Sch.Cols[i].EventTime {
			out = append(out, i)
		}
	}
	return out
}

// Global reports whether this is a global (keyless) aggregation, which by
// SQL semantics always produces exactly one row.
func (a *Aggregate) Global() bool { return len(a.Keys) == 0 }

// WindowFn enumerates windowing table-valued functions.
type WindowFn uint8

// Windowing TVFs (Extension 3 plus the Session future-work extension).
const (
	TumbleFn WindowFn = iota
	HopFn
	SessionFn
)

func (f WindowFn) String() string {
	switch f {
	case TumbleFn:
		return "Tumble"
	case HopFn:
		return "Hop"
	default:
		return "Session"
	}
}

// WindowTVF augments each input row with wstart/wend event-time interval
// columns per the windowing function's assignment.
type WindowTVF struct {
	Input   Node
	Fn      WindowFn
	TimeIdx int // event-time column of Input used for assignment
	Dur     types.Duration
	Slide   types.Duration // Hop only
	Gap     types.Duration // Session only
	Offset  types.Duration
	Sch     *types.Schema
}

// Schema implements Node.
func (w *WindowTVF) Schema() *types.Schema { return w.Sch }

// Unbounded implements Node.
func (w *WindowTVF) Unbounded() bool { return w.Input.Unbounded() }

// Children implements Node.
func (w *WindowTVF) Children() []Node { return []Node{w.Input} }

// Describe implements Node.
func (w *WindowTVF) Describe() string {
	switch w.Fn {
	case TumbleFn:
		return fmt.Sprintf("Tumble($%d, %s, offset=%s)", w.TimeIdx, w.Dur, w.Offset)
	case HopFn:
		return fmt.Sprintf("Hop($%d, %s, slide=%s, offset=%s)", w.TimeIdx, w.Dur, w.Slide, w.Offset)
	default:
		return fmt.Sprintf("Session($%d, gap=%s)", w.TimeIdx, w.Gap)
	}
}

// Union concatenates inputs (UNION ALL). Distinct UNION is planned as
// Distinct over Union.
type Union struct {
	Inputs []Node
	Sch    *types.Schema
}

// Schema implements Node.
func (u *Union) Schema() *types.Schema { return u.Sch }

// Unbounded implements Node.
func (u *Union) Unbounded() bool {
	for _, in := range u.Inputs {
		if in.Unbounded() {
			return true
		}
	}
	return false
}

// Children implements Node.
func (u *Union) Children() []Node { return u.Inputs }

// Describe implements Node.
func (u *Union) Describe() string { return fmt.Sprintf("UnionAll(%d inputs)", len(u.Inputs)) }

// SetOp computes INTERSECT or EXCEPT (with bag semantics when All is set).
type SetOp struct {
	Op          sqlparser.SetOpKind // Intersect or Except
	All         bool
	Left, Right Node
	Sch         *types.Schema
}

// Schema implements Node.
func (s *SetOp) Schema() *types.Schema { return s.Sch }

// Unbounded implements Node.
func (s *SetOp) Unbounded() bool { return s.Left.Unbounded() || s.Right.Unbounded() }

// Children implements Node.
func (s *SetOp) Children() []Node { return []Node{s.Left, s.Right} }

// Describe implements Node.
func (s *SetOp) Describe() string {
	d := s.Op.String()
	if s.All {
		d += " ALL"
	}
	return "SetOp(" + d + ")"
}

// Distinct removes duplicate rows (bag -> set).
type Distinct struct {
	Input Node
}

// Schema implements Node.
func (d *Distinct) Schema() *types.Schema { return d.Input.Schema() }

// Unbounded implements Node.
func (d *Distinct) Unbounded() bool { return d.Input.Unbounded() }

// Children implements Node.
func (d *Distinct) Children() []Node { return []Node{d.Input} }

// Describe implements Node.
func (d *Distinct) Describe() string { return "Distinct" }

// Values is a constant relation (used for FROM-less SELECTs).
type Values struct {
	Rows []types.Row
	Sch  *types.Schema
}

// Schema implements Node.
func (v *Values) Schema() *types.Schema { return v.Sch }

// Unbounded implements Node.
func (v *Values) Unbounded() bool { return false }

// Children implements Node.
func (v *Values) Children() []Node { return nil }

// Describe implements Node.
func (v *Values) Describe() string { return fmt.Sprintf("Values(%d rows)", len(v.Rows)) }

// SortKey is one presentation-order key.
type SortKey struct {
	Col  int
	Desc bool
}

// EmitSpec captures the query's EMIT clause (Extensions 4-7) after
// validation. The zero value means default materialization.
type EmitSpec struct {
	// Stream selects the changelog rendering (EMIT STREAM).
	Stream bool
	// AfterWatermark delays materialization until groups are complete.
	AfterWatermark bool
	// Delay, when non-nil, coalesces updates per group into periodic
	// materializations (EMIT AFTER DELAY).
	Delay *types.Duration
}

// PlannedQuery is the planner's result: a logical plan plus presentation
// (ORDER BY / LIMIT apply to table rendering) and materialization control.
type PlannedQuery struct {
	Root    Node
	OrderBy []SortKey
	Limit   *int64
	Emit    EmitSpec
	// EmitKeyIdxs identifies the event-time grouping columns of the
	// result, used for changelog version numbers and EMIT grouping. Empty
	// means the whole result is one group.
	EmitKeyIdxs []int
}

package plan

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sqlparser"
	"repro/internal/types"
)

// Scalar is a compiled scalar expression: column references are resolved to
// row indexes and the result kind is known statically. Scalars are evaluated
// by the execution engine once per row.
//
// Boolean-valued scalars follow SQL three-valued logic: they produce TRUE,
// FALSE, or NULL. Filters keep a row only when the condition is TRUE.
type Scalar interface {
	// Eval evaluates the expression against one row.
	Eval(row types.Row) (types.Value, error)
	// Kind returns the statically determined result kind.
	Kind() types.Kind
	// String renders a canonical form; two scalars are structurally equal
	// iff their strings are equal (used for GROUP BY matching).
	String() string
}

// ColRef reads a column by index.
type ColRef struct {
	Idx  int
	Name string
	K    types.Kind
}

// Eval implements Scalar.
func (c *ColRef) Eval(row types.Row) (types.Value, error) {
	if c.Idx < 0 || c.Idx >= len(row) {
		return types.Null(), fmt.Errorf("plan: column index %d out of range (row width %d)", c.Idx, len(row))
	}
	return row[c.Idx], nil
}

// Kind implements Scalar.
func (c *ColRef) Kind() types.Kind { return c.K }

func (c *ColRef) String() string { return fmt.Sprintf("$%d", c.Idx) }

// Const is a literal value.
type Const struct {
	Val types.Value
}

// Eval implements Scalar.
func (c *Const) Eval(types.Row) (types.Value, error) { return c.Val, nil }

// Kind implements Scalar.
func (c *Const) Kind() types.Kind { return c.Val.Kind() }

// String renders the literal with its kind; a string literal is quoted, so
// its text cannot read as plan syntax (plan keys and EXPLAIN rely on that).
func (c *Const) String() string {
	if c.Val.Kind() == types.KindString {
		return strconv.Quote(c.Val.Str()) + ":" + c.Val.Kind().String()
	}
	return c.Val.String() + ":" + c.Val.Kind().String()
}

// BinOp applies a binary operator with SQL semantics (NULL propagation for
// arithmetic and comparisons, Kleene logic for AND/OR).
type BinOp struct {
	Op   sqlparser.BinOpKind
	L, R Scalar
	K    types.Kind
}

// NewBinOp type-checks and builds a binary operation.
func NewBinOp(op sqlparser.BinOpKind, l, r Scalar) (*BinOp, error) {
	k, err := binOpKind(op, l.Kind(), r.Kind())
	if err != nil {
		return nil, err
	}
	return &BinOp{Op: op, L: l, R: r, K: k}, nil
}

func binOpKind(op sqlparser.BinOpKind, l, r types.Kind) (types.Kind, error) {
	// NULL literals adopt the other operand's kind.
	if l == types.KindNull {
		l = r
	}
	if r == types.KindNull {
		r = l
	}
	switch op {
	case sqlparser.OpAnd, sqlparser.OpOr:
		if (l == types.KindBool || l == types.KindNull) && (r == types.KindBool || r == types.KindNull) {
			return types.KindBool, nil
		}
		return 0, fmt.Errorf("plan: %s requires BOOLEAN operands, got %s and %s", op, l, r)
	case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
		if l == types.KindNull && r == types.KindNull {
			return types.KindBool, nil
		}
		if l == r || (l.IsNumeric() && r.IsNumeric()) {
			return types.KindBool, nil
		}
		return 0, fmt.Errorf("plan: cannot compare %s with %s", l, r)
	case sqlparser.OpConcat:
		if (l == types.KindString || l == types.KindNull) && (r == types.KindString || r == types.KindNull) {
			return types.KindString, nil
		}
		return 0, fmt.Errorf("plan: || requires VARCHAR operands, got %s and %s", l, r)
	case sqlparser.OpAdd:
		switch {
		case l == types.KindInt64 && r == types.KindInt64:
			return types.KindInt64, nil
		case l.IsNumeric() && r.IsNumeric():
			return types.KindFloat64, nil
		case l == types.KindTimestamp && r == types.KindInterval,
			l == types.KindInterval && r == types.KindTimestamp:
			return types.KindTimestamp, nil
		case l == types.KindInterval && r == types.KindInterval:
			return types.KindInterval, nil
		case l == types.KindNull && r == types.KindNull:
			return types.KindNull, nil
		}
		return 0, fmt.Errorf("plan: cannot add %s and %s", l, r)
	case sqlparser.OpSub:
		switch {
		case l == types.KindInt64 && r == types.KindInt64:
			return types.KindInt64, nil
		case l.IsNumeric() && r.IsNumeric():
			return types.KindFloat64, nil
		case l == types.KindTimestamp && r == types.KindInterval:
			return types.KindTimestamp, nil
		case l == types.KindTimestamp && r == types.KindTimestamp:
			return types.KindInterval, nil
		case l == types.KindInterval && r == types.KindInterval:
			return types.KindInterval, nil
		case l == types.KindNull && r == types.KindNull:
			return types.KindNull, nil
		}
		return 0, fmt.Errorf("plan: cannot subtract %s from %s", r, l)
	case sqlparser.OpMul:
		switch {
		case l == types.KindInt64 && r == types.KindInt64:
			return types.KindInt64, nil
		case l.IsNumeric() && r.IsNumeric():
			return types.KindFloat64, nil
		case l == types.KindInterval && r.IsNumeric(), l.IsNumeric() && r == types.KindInterval:
			return types.KindInterval, nil
		case l == types.KindNull && r == types.KindNull:
			return types.KindNull, nil
		}
		return 0, fmt.Errorf("plan: cannot multiply %s and %s", l, r)
	case sqlparser.OpDiv:
		switch {
		case l == types.KindInt64 && r == types.KindInt64:
			return types.KindInt64, nil
		case l.IsNumeric() && r.IsNumeric():
			return types.KindFloat64, nil
		case l == types.KindInterval && r == types.KindInt64:
			return types.KindInterval, nil
		case l == types.KindNull && r == types.KindNull:
			return types.KindNull, nil
		}
		return 0, fmt.Errorf("plan: cannot divide %s by %s", l, r)
	default:
		return 0, fmt.Errorf("plan: unknown operator %v", op)
	}
}

// Eval implements Scalar.
func (b *BinOp) Eval(row types.Row) (types.Value, error) {
	switch b.Op {
	case sqlparser.OpAnd, sqlparser.OpOr:
		return b.evalLogic(row)
	}
	l, err := b.L.Eval(row)
	if err != nil {
		return types.Null(), err
	}
	r, err := b.R.Eval(row)
	if err != nil {
		return types.Null(), err
	}
	switch b.Op {
	case sqlparser.OpAdd:
		return l.Add(r)
	case sqlparser.OpSub:
		return l.Sub(r)
	case sqlparser.OpMul:
		return l.Mul(r)
	case sqlparser.OpDiv:
		return l.Div(r)
	case sqlparser.OpConcat:
		if l.IsNull() || r.IsNull() {
			return types.Null(), nil
		}
		return types.NewString(l.Str() + r.Str()), nil
	case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
		if l.IsNull() || r.IsNull() {
			return types.Null(), nil
		}
		c, err := l.Compare(r)
		if err != nil {
			return types.Null(), err
		}
		var res bool
		switch b.Op {
		case sqlparser.OpEq:
			res = c == 0
		case sqlparser.OpNe:
			res = c != 0
		case sqlparser.OpLt:
			res = c < 0
		case sqlparser.OpLe:
			res = c <= 0
		case sqlparser.OpGt:
			res = c > 0
		case sqlparser.OpGe:
			res = c >= 0
		}
		return types.NewBool(res), nil
	default:
		return types.Null(), fmt.Errorf("plan: unknown operator %v", b.Op)
	}
}

// evalLogic implements Kleene three-valued AND/OR with short-circuiting.
func (b *BinOp) evalLogic(row types.Row) (types.Value, error) {
	l, err := b.L.Eval(row)
	if err != nil {
		return types.Null(), err
	}
	and := b.Op == sqlparser.OpAnd
	if !l.IsNull() {
		if and && !l.Bool() {
			return types.NewBool(false), nil
		}
		if !and && l.Bool() {
			return types.NewBool(true), nil
		}
	}
	r, err := b.R.Eval(row)
	if err != nil {
		return types.Null(), err
	}
	if !r.IsNull() {
		if and && !r.Bool() {
			return types.NewBool(false), nil
		}
		if !and && r.Bool() {
			return types.NewBool(true), nil
		}
	}
	if l.IsNull() || r.IsNull() {
		return types.Null(), nil
	}
	if and {
		return types.NewBool(l.Bool() && r.Bool()), nil
	}
	return types.NewBool(l.Bool() || r.Bool()), nil
}

// Kind implements Scalar.
func (b *BinOp) Kind() types.Kind { return b.K }

func (b *BinOp) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// Not negates a boolean (NULL stays NULL).
type Not struct {
	E Scalar
}

// Eval implements Scalar.
func (n *Not) Eval(row types.Row) (types.Value, error) {
	v, err := n.E.Eval(row)
	if err != nil || v.IsNull() {
		return types.Null(), err
	}
	return types.NewBool(!v.Bool()), nil
}

// Kind implements Scalar.
func (n *Not) Kind() types.Kind { return types.KindBool }

func (n *Not) String() string { return "(NOT " + n.E.String() + ")" }

// Neg is unary minus.
type Neg struct {
	E Scalar
}

// Eval implements Scalar.
func (n *Neg) Eval(row types.Row) (types.Value, error) {
	v, err := n.E.Eval(row)
	if err != nil {
		return types.Null(), err
	}
	return v.Neg()
}

// Kind implements Scalar.
func (n *Neg) Kind() types.Kind { return n.E.Kind() }

func (n *Neg) String() string { return "(-" + n.E.String() + ")" }

// IsNull tests for SQL NULL (never returns NULL itself).
type IsNull struct {
	E   Scalar
	Not bool
}

// Eval implements Scalar.
func (i *IsNull) Eval(row types.Row) (types.Value, error) {
	v, err := i.E.Eval(row)
	if err != nil {
		return types.Null(), err
	}
	return types.NewBool(v.IsNull() != i.Not), nil
}

// Kind implements Scalar.
func (i *IsNull) Kind() types.Kind { return types.KindBool }

func (i *IsNull) String() string {
	if i.Not {
		return "(" + i.E.String() + " IS NOT NULL)"
	}
	return "(" + i.E.String() + " IS NULL)"
}

// Case implements both searched and simple CASE (the planner desugars simple
// CASE into searched form).
type Case struct {
	Whens []CaseWhen
	Else  Scalar // nil means NULL
	K     types.Kind
}

// CaseWhen is one WHEN/THEN branch of a searched CASE.
type CaseWhen struct {
	When Scalar // boolean
	Then Scalar
}

// Eval implements Scalar.
func (c *Case) Eval(row types.Row) (types.Value, error) {
	for _, w := range c.Whens {
		v, err := w.When.Eval(row)
		if err != nil {
			return types.Null(), err
		}
		if !v.IsNull() && v.Bool() {
			return w.Then.Eval(row)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(row)
	}
	return types.Null(), nil
}

// Kind implements Scalar.
func (c *Case) Kind() types.Kind { return c.K }

func (c *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		sb.WriteString(" WHEN " + w.When.String() + " THEN " + w.Then.String())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE " + c.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

// Cast converts between kinds at runtime.
type Cast struct {
	E  Scalar
	To types.Kind
}

// Eval implements Scalar.
func (c *Cast) Eval(row types.Row) (types.Value, error) {
	v, err := c.E.Eval(row)
	if err != nil || v.IsNull() {
		return types.Null(), err
	}
	if v.Kind() == c.To {
		return v, nil
	}
	switch c.To {
	case types.KindFloat64:
		if v.Kind() == types.KindInt64 {
			return types.NewFloat(float64(v.Int())), nil
		}
	case types.KindInt64:
		switch v.Kind() {
		case types.KindFloat64:
			return types.NewInt(int64(v.Float())), nil
		case types.KindBool:
			if v.Bool() {
				return types.NewInt(1), nil
			}
			return types.NewInt(0), nil
		}
	case types.KindString:
		return types.NewString(v.String()), nil
	case types.KindTimestamp:
		if v.Kind() == types.KindInt64 {
			return types.NewTimestamp(types.Time(v.Int())), nil
		}
	}
	return types.Null(), fmt.Errorf("plan: cannot cast %s to %s", v.Kind(), c.To)
}

// Kind implements Scalar.
func (c *Cast) Kind() types.Kind { return c.To }

func (c *Cast) String() string { return "CAST(" + c.E.String() + " AS " + c.To.String() + ")" }

// Call invokes a built-in scalar function.
type Call struct {
	Fn   string // canonical upper-case name
	Args []Scalar
	K    types.Kind
}

// scalarFuncs maps function names to (result-kind inference, evaluator).
var scalarFuncs = map[string]struct {
	minArgs, maxArgs int
	kind             func(args []Scalar) (types.Kind, error)
	eval             func(vals []types.Value) (types.Value, error)
}{
	"ABS": {1, 1, kindSameAsArg0Numeric, func(v []types.Value) (types.Value, error) {
		if v[0].IsNull() {
			return types.Null(), nil
		}
		if v[0].Kind() == types.KindInt64 {
			if v[0].Int() < 0 {
				return types.NewInt(-v[0].Int()), nil
			}
			return v[0], nil
		}
		return types.NewFloat(math.Abs(v[0].AsFloat())), nil
	}},
	"FLOOR": {1, 1, kindSameAsArg0Numeric, func(v []types.Value) (types.Value, error) {
		if v[0].IsNull() {
			return types.Null(), nil
		}
		if v[0].Kind() == types.KindInt64 {
			return v[0], nil
		}
		return types.NewFloat(math.Floor(v[0].AsFloat())), nil
	}},
	"CEIL": {1, 1, kindSameAsArg0Numeric, func(v []types.Value) (types.Value, error) {
		if v[0].IsNull() {
			return types.Null(), nil
		}
		if v[0].Kind() == types.KindInt64 {
			return v[0], nil
		}
		return types.NewFloat(math.Ceil(v[0].AsFloat())), nil
	}},
	"SQRT": {1, 1, kindAlwaysFloat, func(v []types.Value) (types.Value, error) {
		if v[0].IsNull() {
			return types.Null(), nil
		}
		return types.NewFloat(math.Sqrt(v[0].AsFloat())), nil
	}},
	"MOD": {2, 2, kindAlwaysInt, func(v []types.Value) (types.Value, error) {
		if v[0].IsNull() || v[1].IsNull() {
			return types.Null(), nil
		}
		if v[1].Int() == 0 {
			return types.Null(), fmt.Errorf("plan: MOD by zero")
		}
		return types.NewInt(v[0].Int() % v[1].Int()), nil
	}},
	"COALESCE": {1, 16, kindFirstNonNullArg, func(v []types.Value) (types.Value, error) {
		for _, x := range v {
			if !x.IsNull() {
				return x, nil
			}
		}
		return types.Null(), nil
	}},
	"NULLIF": {2, 2, kindSameAsArg0, func(v []types.Value) (types.Value, error) {
		if v[0].IsNull() {
			return types.Null(), nil
		}
		if !v[1].IsNull() && v[0].Equal(v[1]) {
			return types.Null(), nil
		}
		return v[0], nil
	}},
	"UPPER": {1, 1, kindAlwaysString, func(v []types.Value) (types.Value, error) {
		if v[0].IsNull() {
			return types.Null(), nil
		}
		return types.NewString(strings.ToUpper(v[0].Str())), nil
	}},
	"LOWER": {1, 1, kindAlwaysString, func(v []types.Value) (types.Value, error) {
		if v[0].IsNull() {
			return types.Null(), nil
		}
		return types.NewString(strings.ToLower(v[0].Str())), nil
	}},
	"CHAR_LENGTH": {1, 1, kindAlwaysInt, func(v []types.Value) (types.Value, error) {
		if v[0].IsNull() {
			return types.Null(), nil
		}
		return types.NewInt(int64(len(v[0].Str()))), nil
	}},
	"CONCAT": {1, 16, kindAlwaysString, func(v []types.Value) (types.Value, error) {
		var sb strings.Builder
		for _, x := range v {
			if !x.IsNull() {
				sb.WriteString(x.String())
			}
		}
		return types.NewString(sb.String()), nil
	}},
	// TUMBLE_START/TUMBLE_END style helpers: scalar forms of window
	// assignment, useful in projections and for the CQL comparisons.
	"TUMBLE_START": {2, 3, kindAlwaysTimestamp, nil}, // evaluated specially below
	"TUMBLE_END":   {2, 3, kindAlwaysTimestamp, nil},
}

func kindSameAsArg0(args []Scalar) (types.Kind, error) { return args[0].Kind(), nil }

func kindSameAsArg0Numeric(args []Scalar) (types.Kind, error) {
	k := args[0].Kind()
	if !k.IsNumeric() && k != types.KindNull {
		return 0, fmt.Errorf("plan: numeric argument required, got %s", k)
	}
	return k, nil
}

func kindAlwaysFloat(d []Scalar) (types.Kind, error)     { return types.KindFloat64, nil }
func kindAlwaysInt(d []Scalar) (types.Kind, error)       { return types.KindInt64, nil }
func kindAlwaysString(d []Scalar) (types.Kind, error)    { return types.KindString, nil }
func kindAlwaysTimestamp(d []Scalar) (types.Kind, error) { return types.KindTimestamp, nil }

// NewCall type-checks and builds a scalar function call.
func NewCall(name string, args []Scalar) (*Call, error) {
	fn, ok := scalarFuncs[name]
	if !ok {
		return nil, fmt.Errorf("plan: unknown function %s", name)
	}
	if len(args) < fn.minArgs || len(args) > fn.maxArgs {
		return nil, fmt.Errorf("plan: %s takes %d..%d arguments, got %d", name, fn.minArgs, fn.maxArgs, len(args))
	}
	k, err := fn.kind(args)
	if err != nil {
		return nil, err
	}
	return &Call{Fn: name, Args: args, K: k}, nil
}

func kindFirstNonNullArg(args []Scalar) (types.Kind, error) {
	for _, a := range args {
		if a.Kind() != types.KindNull {
			return a.Kind(), nil
		}
	}
	return types.KindNull, nil
}

// Eval implements Scalar.
func (c *Call) Eval(row types.Row) (types.Value, error) {
	vals := make([]types.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := a.Eval(row)
		if err != nil {
			return types.Null(), err
		}
		vals[i] = v
	}
	switch c.Fn {
	case "TUMBLE_START", "TUMBLE_END":
		return evalTumbleScalar(c.Fn, vals)
	}
	return scalarFuncs[c.Fn].eval(vals)
}

func evalTumbleScalar(fn string, vals []types.Value) (types.Value, error) {
	if vals[0].IsNull() || vals[1].IsNull() {
		return types.Null(), nil
	}
	t := vals[0].Timestamp()
	dur := vals[1].Interval()
	var off types.Duration
	if len(vals) == 3 && !vals[2].IsNull() {
		off = vals[2].Interval()
	}
	if dur <= 0 {
		return types.Null(), fmt.Errorf("plan: %s requires positive duration", fn)
	}
	rel := int64(t) - int64(off)
	start := rel - ((rel%int64(dur))+int64(dur))%int64(dur)
	if fn == "TUMBLE_START" {
		return types.NewTimestamp(types.Time(start + int64(off))), nil
	}
	return types.NewTimestamp(types.Time(start + int64(off) + int64(dur))), nil
}

// Kind implements Scalar.
func (c *Call) Kind() types.Kind { return c.K }

func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Fn + "(" + strings.Join(parts, ", ") + ")"
}

// EvalBool evaluates a boolean scalar for filtering: the row passes only if
// the result is non-NULL TRUE.
func EvalBool(s Scalar, row types.Row) (bool, error) {
	v, err := s.Eval(row)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Bool(), nil
}

// IsConst reports whether the scalar contains no column references, in which
// case it can be folded at plan time.
func IsConst(s Scalar) bool {
	switch e := s.(type) {
	case *Const:
		return true
	case *ColRef:
		return false
	case *BinOp:
		return IsConst(e.L) && IsConst(e.R)
	case *Not:
		return IsConst(e.E)
	case *Neg:
		return IsConst(e.E)
	case *IsNull:
		return IsConst(e.E)
	case *Cast:
		return IsConst(e.E)
	case *Call:
		for _, a := range e.Args {
			if !IsConst(a) {
				return false
			}
		}
		return true
	case *Case:
		for _, w := range e.Whens {
			if !IsConst(w.When) || !IsConst(w.Then) {
				return false
			}
		}
		return e.Else == nil || IsConst(e.Else)
	default:
		return false
	}
}

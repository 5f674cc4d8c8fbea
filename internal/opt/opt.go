// Package opt implements the rule-based logical optimizer. Rules are
// semantics-preserving rewrites applied bottom-up:
//
//   - constant folding of scalar expressions;
//   - predicate pushdown: WHERE conjuncts over a cross/inner join become
//     equi-join keys, single-side filters below the join, or join residuals;
//   - interval-join expiry: event-time bounds in join predicates let the
//     join free stored rows once the watermark proves they can never match
//     again (the state-cleanup lesson of Section 5 of the paper).
package opt

import (
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// Optimize rewrites the planned query in place and returns it.
func Optimize(pq *plan.PlannedQuery) *plan.PlannedQuery {
	pq.Root = optimizeNode(pq.Root)
	return pq
}

func optimizeNode(n plan.Node) plan.Node {
	// Bottom-up: children first.
	switch x := n.(type) {
	case *plan.Filter:
		x.Input = optimizeNode(x.Input)
		x.Cond = fold(x.Cond)
		if j, ok := x.Input.(*plan.Join); ok && pushable(j.Kind) {
			if rest := pushIntoJoin(j, x.Cond); rest == nil {
				detectExpiry(j)
				return j
			} else {
				x.Cond = rest
				detectExpiry(j)
				return x
			}
		}
		return x
	case *plan.Project:
		x.Input = optimizeNode(x.Input)
		for i := range x.Exprs {
			x.Exprs[i] = fold(x.Exprs[i])
		}
		return x
	case *plan.Join:
		x.Left = optimizeNode(x.Left)
		x.Right = optimizeNode(x.Right)
		if x.Residual != nil {
			x.Residual = fold(x.Residual)
		}
		detectExpiry(x)
		return x
	case *plan.Aggregate:
		x.Input = optimizeNode(x.Input)
		for i := range x.Keys {
			x.Keys[i] = fold(x.Keys[i])
		}
		for i := range x.Aggs {
			if x.Aggs[i].Arg != nil {
				x.Aggs[i].Arg = fold(x.Aggs[i].Arg)
			}
		}
		return x
	case *plan.WindowTVF:
		x.Input = optimizeNode(x.Input)
		return x
	case *plan.Distinct:
		x.Input = optimizeNode(x.Input)
		return x
	case *plan.Union:
		for i := range x.Inputs {
			x.Inputs[i] = optimizeNode(x.Inputs[i])
		}
		return x
	case *plan.SetOp:
		x.Left = optimizeNode(x.Left)
		x.Right = optimizeNode(x.Right)
		return x
	default:
		return n
	}
}

func pushable(k sqlparser.JoinKind) bool {
	return k == sqlparser.CrossJoin || k == sqlparser.InnerJoin
}

// fold evaluates constant subexpressions at plan time.
func fold(s plan.Scalar) plan.Scalar {
	switch e := s.(type) {
	case *plan.BinOp:
		e.L = fold(e.L)
		e.R = fold(e.R)
	case *plan.Not:
		e.E = fold(e.E)
	case *plan.Neg:
		e.E = fold(e.E)
	case *plan.IsNull:
		e.E = fold(e.E)
	case *plan.Cast:
		e.E = fold(e.E)
	case *plan.Call:
		for i := range e.Args {
			e.Args[i] = fold(e.Args[i])
		}
	case *plan.Case:
		for i := range e.Whens {
			e.Whens[i].When = fold(e.Whens[i].When)
			e.Whens[i].Then = fold(e.Whens[i].Then)
		}
		if e.Else != nil {
			e.Else = fold(e.Else)
		}
	}
	if _, already := s.(*plan.Const); already {
		return s
	}
	if plan.IsConst(s) {
		if v, err := s.Eval(nil); err == nil {
			return &plan.Const{Val: v}
		}
	}
	return s
}

// pushIntoJoin distributes the filter's conjuncts: equi predicates become
// join keys, single-side predicates become filters below the join, the rest
// joins the residual. It returns the conjunction that must remain above the
// join (nil if fully consumed).
func pushIntoJoin(j *plan.Join, cond plan.Scalar) plan.Scalar {
	leftW := j.Left.Schema().Len()
	total := leftW + j.Right.Schema().Len()
	var leftOnly, rightOnly, residual []plan.Scalar
	for _, c := range plan.Conjuncts(cond) {
		if lk, rk, ok := plan.EquiPair(c, leftW); ok {
			j.LeftKeys = append(j.LeftKeys, lk)
			j.RightKeys = append(j.RightKeys, rk)
			continue
		}
		lo, hi := colRange(c, total)
		switch {
		case hi < leftW:
			leftOnly = append(leftOnly, c)
		case lo >= leftW && lo <= hi:
			rightOnly = append(rightOnly, shift(c, -leftW))
		default:
			residual = append(residual, c)
		}
	}
	if len(leftOnly) > 0 {
		j.Left = &plan.Filter{Input: j.Left, Cond: plan.Conjoin(nil, leftOnly)}
	}
	if len(rightOnly) > 0 {
		j.Right = &plan.Filter{Input: j.Right, Cond: plan.Conjoin(nil, rightOnly)}
	}
	if len(residual) > 0 {
		j.Residual = plan.Conjoin(j.Residual, residual)
	}
	return nil
}

// colRange returns the min and max column index referenced by s
// (lo > hi means no references).
func colRange(s plan.Scalar, total int) (int, int) {
	lo, hi := total, -1
	var walk func(plan.Scalar)
	walk = func(e plan.Scalar) {
		switch x := e.(type) {
		case *plan.ColRef:
			if x.Idx < lo {
				lo = x.Idx
			}
			if x.Idx > hi {
				hi = x.Idx
			}
		case *plan.BinOp:
			walk(x.L)
			walk(x.R)
		case *plan.Not:
			walk(x.E)
		case *plan.Neg:
			walk(x.E)
		case *plan.IsNull:
			walk(x.E)
		case *plan.Cast:
			walk(x.E)
		case *plan.Call:
			for _, a := range x.Args {
				walk(a)
			}
		case *plan.Case:
			for _, w := range x.Whens {
				walk(w.When)
				walk(w.Then)
			}
			if x.Else != nil {
				walk(x.Else)
			}
		}
	}
	walk(s)
	return lo, hi
}

// shift rebases every column reference by delta (used when pushing a
// right-side-only predicate below the join).
func shift(s plan.Scalar, delta int) plan.Scalar {
	switch x := s.(type) {
	case *plan.ColRef:
		return &plan.ColRef{Idx: x.Idx + delta, Name: x.Name, K: x.K}
	case *plan.Const:
		return x
	case *plan.BinOp:
		return &plan.BinOp{Op: x.Op, L: shift(x.L, delta), R: shift(x.R, delta), K: x.Kind()}
	case *plan.Not:
		return &plan.Not{E: shift(x.E, delta)}
	case *plan.Neg:
		return &plan.Neg{E: shift(x.E, delta)}
	case *plan.IsNull:
		return &plan.IsNull{E: shift(x.E, delta), Not: x.Not}
	case *plan.Cast:
		return &plan.Cast{E: shift(x.E, delta), To: x.To}
	case *plan.Call:
		args := make([]plan.Scalar, len(x.Args))
		for i, a := range x.Args {
			args[i] = shift(a, delta)
		}
		return &plan.Call{Fn: x.Fn, Args: args, K: x.Kind()}
	case *plan.Case:
		c := &plan.Case{K: x.Kind()}
		for _, w := range x.Whens {
			c.Whens = append(c.Whens, plan.CaseWhen{When: shift(w.When, delta), Then: shift(w.Then, delta)})
		}
		if x.Else != nil {
			c.Else = shift(x.Else, delta)
		}
		return c
	default:
		return s
	}
}

// detectExpiry derives interval-join state-expiry bounds from the join's
// residual predicates. For a conjunct normalized to
//
//	leftCol + lk  <op>  rightCol + rk
//
// over zero-offset event-time columns on opposite sides, an upper bound on
// the left column means stored RIGHT rows expire once the merged watermark
// passes rightVal + (rk - lk) (no future left row can match), and an upper
// bound on the right column means stored LEFT rows expire symmetrically.
// Strict comparisons tighten the bound by one millisecond.
func detectExpiry(j *plan.Join) {
	if j.Residual == nil || !pushable(j.Kind) {
		return
	}
	leftW := j.Left.Schema().Len()
	sch := j.Sch
	isEventCol := func(idx int) bool {
		return idx < sch.Len() && sch.Cols[idx].EventTime && sch.Cols[idx].WmOffset == 0
	}
	for _, c := range plan.Conjuncts(j.Residual) {
		b, ok := c.(*plan.BinOp)
		if !ok {
			continue
		}
		var op sqlparser.BinOpKind
		switch b.Op {
		case sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
			op = b.Op
		default:
			continue
		}
		lcol, lk, ok1 := affine(b.L)
		rcol, rk, ok2 := affine(b.R)
		if !ok1 || !ok2 || !isEventCol(lcol) || !isEventCol(rcol) {
			continue
		}
		// Normalize so the expression's left column is on the join's
		// left side.
		if lcol >= leftW && rcol < leftW {
			lcol, rcol = rcol, lcol
			lk, rk = rk, lk
			switch op {
			case sqlparser.OpLt:
				op = sqlparser.OpGt
			case sqlparser.OpLe:
				op = sqlparser.OpGe
			case sqlparser.OpGt:
				op = sqlparser.OpLt
			case sqlparser.OpGe:
				op = sqlparser.OpLe
			}
		}
		if lcol >= leftW || rcol < leftW {
			continue // both on the same side
		}
		rcolRel := rcol - leftW
		switch op {
		case sqlparser.OpLt, sqlparser.OpLe:
			// leftCol <= rightCol + (rk - lk): upper bound on left
			// values => stored right rows expire.
			bound := types.Duration(rk - lk)
			if op == sqlparser.OpLt {
				bound -= types.Millisecond
			}
			setExpiry(&j.RightExpiry, rcolRel, bound)
		case sqlparser.OpGt, sqlparser.OpGe:
			// leftCol >= rightCol + (rk - lk): upper bound on right
			// values => stored left rows expire at leftVal + (lk - rk).
			bound := types.Duration(lk - rk)
			if op == sqlparser.OpGt {
				bound -= types.Millisecond
			}
			setExpiry(&j.LeftExpiry, lcol, bound)
		}
	}
}

// setExpiry records the tightest (smallest) bound per column.
func setExpiry(slot **plan.ExpiryBound, col int, bound types.Duration) {
	if *slot == nil || ((*slot).Col == col && bound < (*slot).Bound) {
		*slot = &plan.ExpiryBound{Col: col, Bound: bound}
	}
}

// affine decomposes col, col + interval, or col - interval into
// (column index, offset in ms).
func affine(s plan.Scalar) (int, int64, bool) {
	switch x := s.(type) {
	case *plan.ColRef:
		return x.Idx, 0, true
	case *plan.BinOp:
		cr, ok := x.L.(*plan.ColRef)
		if !ok {
			return 0, 0, false
		}
		con, ok := x.R.(*plan.Const)
		if !ok || con.Val.Kind() != types.KindInterval {
			return 0, 0, false
		}
		switch x.Op {
		case sqlparser.OpAdd:
			return cr.Idx, int64(con.Val.Interval()), true
		case sqlparser.OpSub:
			return cr.Idx, -int64(con.Val.Interval()), true
		}
	}
	return 0, 0, false
}

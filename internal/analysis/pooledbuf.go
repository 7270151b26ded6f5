// pooledbuf enforces the comm buffer-pool ownership-transfer contract
// (internal/comm/pool.go, DESIGN.md): passing a buffer to
// comm.SendPooled or comm.PutBuffer hands ownership away — the caller
// must not read, write, append, re-release or resend the slice
// afterwards. This is the bug class PR 6 fixed by hand in
// TryRecv/replay (pinned payloads) and the silent-flux-corruption
// hazard of recycling a shared slice.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// A tracked buffer is a plain variable or a field/element path rooted at
// one (s.Payload, batch[i].Payload — how stream payloads are released),
// so reading a payload after the master recycled it is caught like
// reading a message buffer after SendPooled.
//
// PooledBuf flags (a) any use of a []byte after it was released via
// SendPooled/PutBuffer in the same function, (b) pool-obtained buffers
// escaping through a plain Send call (they never recycle, and a shared
// slice must never be pooled), and (c) a release inside a loop of a
// buffer declared outside it (the AllExchange shared-slice shape: the
// second iteration sends an already-released buffer).
var PooledBuf = &Analyzer{
	Name: "pooledbuf",
	Doc: "flags use of a pooled []byte after comm.SendPooled/PutBuffer released it, " +
		"pooled buffers sent through plain Send, and in-loop releases of loop-external buffers",
	Run: runPooledBuf,
}

func runPooledBuf(pass *Pass) error {
	// The pool implementation itself (comm.SendPooled falls back to
	// ep.Send) is exempt.
	if pathBase(pass.Pkg.Path()) == "comm" {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkPooledFunc(pass, fn.Body)
				}
				return false // nested FuncLits are scanned as part of the body
			}
			return true
		})
	}
	return nil
}

// bufEvent is one occurrence of a tracked buffer variable.
type bufEvent struct {
	pos      token.Pos
	reassign bool // obj is the sole LHS of an assignment (ownership re-armed)
}

// bufRef names a tracked buffer expression: a variable, or a field/element
// path rooted at one.
type bufRef struct {
	// key identifies the expression within the function: its source form
	// with every identifier pinned to its declaration.
	key string
	// name is the source form, for diagnostics.
	name string
	// prefixes are the keys of the enclosing paths (batch[i] and batch for
	// batch[i].Payload): assigning to one of them re-arms the buffer.
	prefixes []string
	// decls are the declaration positions of the identifiers the path is
	// built from.
	decls []token.Pos
}

// bufRefOf canonicalises e, or reports false when e is not a trackable
// path (calls, arithmetic indices, ...).
func bufRefOf(info *types.Info, e ast.Expr) (bufRef, bool) {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		obj := lhsObject(info, x)
		if obj == nil || x.Name == "_" {
			return bufRef{}, false
		}
		return bufRef{key: fmt.Sprintf("%s@%d", x.Name, obj.Pos()), name: x.Name, decls: []token.Pos{obj.Pos()}}, true
	case *ast.SelectorExpr:
		if sel := info.Selections[x]; sel == nil || sel.Kind() != types.FieldVal {
			return bufRef{}, false
		}
		r, ok := bufRefOf(info, x.X)
		if !ok {
			return bufRef{}, false
		}
		r.prefixes = append(r.prefixes, r.key)
		r.key += "." + x.Sel.Name
		r.name += "." + x.Sel.Name
		return r, true
	case *ast.IndexExpr:
		r, ok := bufRefOf(info, x.X)
		if !ok {
			return bufRef{}, false
		}
		idx := ""
		switch i := unparen(x.Index).(type) {
		case *ast.BasicLit:
			idx = i.Value
		case *ast.Ident:
			ir, ok := bufRefOf(info, i)
			if !ok {
				return bufRef{}, false
			}
			idx = ir.key
			r.decls = append(r.decls, ir.decls...)
		default:
			return bufRef{}, false
		}
		r.prefixes = append(r.prefixes, r.key)
		r.key += "[" + idx + "]"
		r.name = types.ExprString(x)
		return r, true
	}
	return bufRef{}, false
}

// bufRelease is one ownership hand-off.
type bufRelease struct {
	ref     bufRef
	pos     token.Pos
	call    *ast.CallExpr
	inDefer bool
	loops   []*loopInfo // enclosing loops, outermost first
}

type loopInfo struct {
	pos, end token.Pos
}

// checkPooledFunc runs the position-based ownership check over one
// function body (closures included: their statements are linear in the
// same source).
func checkPooledFunc(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo

	pooled := make(map[types.Object]bool) // vars holding a GetBuffer-backed slice
	uses := make(map[string][]bufEvent)   // by bufRef key
	var releases []bufRelease

	var loopStack []*loopInfo
	var deferDepth int

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch s := n.(type) {
		case nil:
			return
		case *ast.ForStmt, *ast.RangeStmt:
			loopStack = append(loopStack, &loopInfo{pos: n.Pos(), end: n.End()})
			ast.Inspect(n, func(m ast.Node) bool {
				if m == n {
					return true
				}
				walk(m)
				return false
			})
			loopStack = loopStack[:len(loopStack)-1]
			return
		case *ast.DeferStmt:
			deferDepth++
			walk(s.Call)
			deferDepth--
			return
		case *ast.AssignStmt:
			// Record re-arms: `x = ...` / `x := ...` with x (or a path such
			// as s.Payload) alone on the left resets ownership from that
			// point on.
			for _, lhs := range s.Lhs {
				if ref, ok := bufRefOf(info, lhs); ok {
					uses[ref.key] = append(uses[ref.key], bufEvent{pos: lhs.Pos(), reassign: len(s.Lhs) == 1})
				}
			}
			// Track pool provenance: RHS containing a GetBuffer call arms
			// the assigned var.
			if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
				if id, ok := s.Lhs[0].(*ast.Ident); ok {
					if obj := lhsObject(info, id); obj != nil && exprHasGetBuffer(info, s.Rhs[0]) {
						pooled[obj] = true
					}
				}
			}
			for _, rhs := range s.Rhs {
				walk(rhs)
			}
			return
		case *ast.CallExpr:
			if relArg := releaseCall(info, s); relArg != nil {
				if ref, ok := bufRefOf(info, relArg); ok {
					loops := make([]*loopInfo, len(loopStack))
					copy(loops, loopStack)
					releases = append(releases, bufRelease{
						ref: ref, pos: s.Pos(), call: s, inDefer: deferDepth > 0, loops: loops,
					})
					// The released argument itself is not a "use".
					for _, arg := range s.Args {
						if unparen(arg) != unparen(relArg) {
							walk(arg)
						}
					}
					walk(s.Fun)
					return
				}
			}
			if plainSendCall(info, s) {
				for _, arg := range s.Args {
					if id, ok := unparen(arg).(*ast.Ident); ok {
						if o := info.Uses[id]; o != nil && pooled[o] {
							pass.Reportf(arg.Pos(),
								"pooled buffer %s passed to plain Send: it will never recycle; use comm.SendPooled (or drop the pool)", id.Name)
						}
					}
				}
			}
		case *ast.Ident:
			if o := info.Uses[s]; o != nil {
				if ref, ok := bufRefOf(info, s); ok {
					uses[ref.key] = append(uses[ref.key], bufEvent{pos: s.Pos()})
				}
			}
			return
		case *ast.SelectorExpr, *ast.IndexExpr:
			// A path use; its parts are walked below as uses of their own.
			if ref, ok := bufRefOf(info, s.(ast.Expr)); ok {
				uses[ref.key] = append(uses[ref.key], bufEvent{pos: s.Pos()})
			}
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			walk(m)
			return false
		})
	}
	for _, stmt := range body.List {
		walk(stmt)
	}

	// rearmed reports whether the buffer of rel was assigned afresh —
	// itself or through an enclosing path — between lo and hi.
	rearmed := func(rel bufRelease, lo, hi token.Pos) bool {
		if reassignedBetween(uses[rel.ref.key], lo, hi) {
			return true
		}
		for _, prefix := range rel.ref.prefixes {
			if reassignedBetween(uses[prefix], lo, hi) {
				return true
			}
		}
		return false
	}
	for _, rel := range releases {
		// (c) in-loop release of a loop-external buffer: iteration two
		// touches a slice the pool may already have handed out again. A
		// path through a loop-local identifier (batch[i].Payload) names a
		// different buffer every iteration.
		if !rel.inDefer && len(rel.loops) > 0 {
			inner := rel.loops[len(rel.loops)-1]
			external := true
			for _, decl := range rel.ref.decls {
				if decl >= inner.pos && decl <= inner.end {
					external = false
				}
			}
			if external {
				pass.Reportf(rel.pos,
					"buffer %s released inside a loop but declared outside it: a later iteration reuses a slice the pool owns", rel.ref.name)
				continue
			}
		}
		if rel.inDefer {
			continue // releases at function exit cannot precede a use
		}
		// (a') a second release of the same buffer is a use of freed
		// memory too (the release argument itself is exempted from the
		// use scan below, so double-releases need their own pass).
		for _, later := range releases {
			if later.ref.key != rel.ref.key || later.inDefer || later.pos <= rel.call.End() {
				continue
			}
			if rearmed(rel, rel.call.End(), later.pos) {
				continue
			}
			pass.Reportf(later.pos,
				"use of buffer %s after it was released at line %d: SendPooled/PutBuffer hand ownership to the pool", rel.ref.name,
				pass.Fset.Position(rel.pos).Line)
		}
		// (a) any occurrence after the release, unless a reassignment
		// re-armed the variable in between.
		for _, ev := range uses[rel.ref.key] {
			if ev.pos <= rel.call.End() {
				continue
			}
			if rearmed(rel, rel.call.End(), ev.pos) {
				continue
			}
			if ev.reassign {
				continue // the re-arm itself is fine
			}
			pass.Reportf(ev.pos,
				"use of buffer %s after it was released at line %d: SendPooled/PutBuffer hand ownership to the pool", rel.ref.name,
				pass.Fset.Position(rel.pos).Line)
		}
	}
}

func reassignedBetween(events []bufEvent, lo, hi token.Pos) bool {
	for _, ev := range events {
		if ev.reassign && ev.pos > lo && ev.pos < hi {
			return true
		}
	}
	return false
}

// lhsObject resolves the object an assignment's LHS ident denotes
// (definition for :=, use for =).
func lhsObject(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// releaseCall recognises comm.SendPooled(ep, to, data),
// comm.PutBuffer(data) and any method call named SendPooled(to, data),
// returning the released data argument.
func releaseCall(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	obj := info.Uses[sel.Sel]
	if obj == nil {
		return nil
	}
	switch sel.Sel.Name {
	case "PutBuffer":
		if pathBase(funcPkgPath(obj)) == "comm" && len(call.Args) == 1 {
			return call.Args[0]
		}
	case "SendPooled":
		if len(call.Args) >= 1 {
			return call.Args[len(call.Args)-1]
		}
	}
	return nil
}

// exprHasGetBuffer reports whether the expression contains a call to
// comm.GetBuffer (possibly sliced or indexed: GetBuffer(n)[:k]).
func exprHasGetBuffer(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "GetBuffer" {
			if obj := info.Uses[sel.Sel]; obj != nil && pathBase(funcPkgPath(obj)) == "comm" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// plainSendCall recognises a method call named exactly Send whose
// signature takes a []byte (the transport's non-pooled send).
func plainSendCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Send" {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sl, ok := sig.Params().At(i).Type().(*types.Slice); ok {
			if basic, ok := sl.Elem().(*types.Basic); ok && basic.Kind() == types.Byte {
				return true
			}
		}
	}
	return false
}

// Package blockinglock finds calls that may block for an unbounded or
// service-scale time while a sync.Mutex or sync.RWMutex is visibly
// held. Lock sharding (ROADMAP item 5) only pays off if critical
// sections stay short: a blocking call under a lock serializes every
// other goroutine contending for it, and under the virtual clock it
// can stretch one critical section across a whole service round.
//
// "May block" is a per-function summary seeded by leaf operations —
// channel sends/receives, select without default, range over a
// channel, sync.WaitGroup.Wait / sync.Cond.Wait, time.Sleep, net
// Read/Write/Accept (directly or by passing a net.Conn/net.Listener to
// another package's Read*/Write*/Serve* function), timed disk.Device
// data-path calls, and virtual-clock waits (msm.Manager RunRound/
// RunUntilDone/RunFor) — and propagated
// through same-package calls to a fixpoint. Lock extents are tracked
// syntactically per function: x.Lock()/x.RLock() opens one, a matching
// x.Unlock()/x.RUnlock() closes it, and a deferred unlock holds to the
// end of the function. Function literals are independent scopes (a
// goroutine body does not inherit the spawner's locks).
//
// The check is an over-approximation: it does not track lock state
// across call boundaries or distinguish branches. Deliberate designs —
// e.g. a single-ported storage manager that serializes all access
// under one lock — opt out with //lint:ignore blockinglock <reason>.
package blockinglock

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mmfs/internal/analysis"
)

// Analyzer flags blocking calls reachable while a mutex is held.
var Analyzer = &analysis.Analyzer{
	Name: "blockinglock",
	Doc: "flag channel ops, net and disk I/O, sleeps, and virtual-clock waits " +
		"reachable while a sync.Mutex/RWMutex is visibly held; critical sections must not block",
	PathPrefixes: []string{
		analysis.ModulePath + "/internal",
		analysis.ModulePath + "/cmd",
	},
	FactTypes: []analysis.Fact{&BlockFact{}},
	Run:       run,
}

// BlockFact is the exported may-block summary of one function: the
// leaf reason its call tree can block. Importing packages charge a
// call to the function with this reason, so msm's critical sections
// see through disk/fault/cache boundaries.
type BlockFact struct{ Reason string }

// AFact marks BlockFact as an exportable fact.
func (*BlockFact) AFact() {}

func run(pass *analysis.Pass) error {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}

	// blocks maps a same-package function to the reason it may block;
	// iterate to a fixpoint so reasons propagate through local calls.
	blocks := make(map[*types.Func]string)
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			if blocks[fn] != "" {
				continue
			}
			if reason := bodyBlockReason(pass, fd.Body, blocks); reason != "" {
				blocks[fn] = reason
				changed = true
			}
		}
	}

	// Publish the summaries so importing packages can charge calls to
	// these functions with the underlying reason (msm holding its lock
	// across a cache or fault-disk call, for example).
	for fn, reason := range blocks {
		pass.ExportFact(fn, &BlockFact{Reason: reason})
	}

	for _, fd := range decls {
		sweep(pass, fd.Body, blocks)
	}
	return nil
}

// bodyBlockReason returns why the body may block, or "". Function
// literals and defers are separate execution contexts and are skipped.
func bodyBlockReason(pass *analysis.Pass, body *ast.BlockStmt, blocks map[*types.Func]string) string {
	comms := commStmts(body)
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			if !comms[n.Pos()] {
				reason = "channel send"
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !comms[n.Pos()] {
				reason = "channel receive"
				return false
			}
		case *ast.SelectStmt:
			if !hasDefault(n) {
				reason = "select"
			}
		case *ast.RangeStmt:
			if _, ok := pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Chan); ok {
				reason = "range over channel"
			}
		case *ast.CallExpr:
			reason = callBlockReason(pass, n, blocks)
		}
		return true
	})
	return reason
}

// commStmts collects the positions of channel ops that appear as a
// select comm clause; the select statement itself accounts for their
// blocking, and under a default clause they do not block at all.
func commStmts(body *ast.BlockStmt) map[token.Pos]bool {
	comms := make(map[token.Pos]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			ast.Inspect(cc.Comm, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.SendStmt:
					comms[m.Pos()] = true
				case *ast.UnaryExpr:
					if m.Op == token.ARROW {
						comms[m.Pos()] = true
					}
				}
				return true
			})
		}
		return true
	})
	return comms
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// netReadWrite are the blocking entry points of net connections and
// listeners.
var netReadWrite = map[string]bool{"Read": true, "Write": true, "Accept": true}

// simWaits are the virtual-clock waits: methods that advance simulated
// time by running service rounds, the analogue of sleeping.
var simWaits = map[string]map[string]bool{
	analysis.ModulePath + "/internal/msm": {"RunRound": true, "RunUntilDone": true, "RunFor": true},
}

// callBlockReason classifies one call, using blocks for same-package
// callees.
func callBlockReason(pass *analysis.Pass, call *ast.CallExpr, blocks map[*types.Func]string) string {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	name := fn.Name()
	if recv := analysis.Receiver(pass.TypesInfo, call); recv != nil {
		pkg, typ := analysis.Named(recv)
		switch {
		case pkg == "sync" && name == "Wait" && (typ == "WaitGroup" || typ == "Cond"):
			return fmt.Sprintf("sync.%s.Wait", typ)
		case pkg == "net" && netReadWrite[name]:
			return fmt.Sprintf("net %s", name)
		case simWaits[pkg] != nil && simWaits[pkg][name]:
			return fmt.Sprintf("virtual-clock wait %s.%s", typ, name)
		}
		if isTimedDeviceCall(pass, recv, name) {
			return fmt.Sprintf("timed disk access %s", name)
		}
	}
	if fn.Pkg() == nil {
		return ""
	}
	switch {
	case fn.Pkg().Path() == "time" && name == "Sleep":
		return "time.Sleep"
	case fn.Pkg() == pass.Pkg:
		if r := blocks[fn]; r != "" {
			return fmt.Sprintf("call to %s, which may block (%s)", name, r)
		}
	case hasNetArg(pass, call) && blockingFuncName(name):
		return fmt.Sprintf("net I/O via %s.%s", fn.Pkg().Name(), name)
	case analysis.FirstParty(fn.Pkg().Path()):
		// Cross-package: a may-block fact exported by the callee's own
		// pass (packages are analyzed in dependency order).
		if f, ok := pass.ImportFact(fn); ok {
			if bf, ok := f.(*BlockFact); ok && bf.Reason != "" {
				return fmt.Sprintf("call to %s.%s, which may block (%s)", fn.Pkg().Name(), name, bf.Reason)
			}
		}
	}
	return ""
}

// isTimedDeviceCall reports whether the call is a timed data-path
// method of the disk.Device interface (anything implementing it counts,
// fault wrappers and future striped arrays included).
func isTimedDeviceCall(pass *analysis.Pass, recv types.Type, name string) bool {
	switch name {
	case "ReadView", "ReadInto", "Write":
	default:
		return false
	}
	dev := analysis.ImportedInterface(pass.Pkg, analysis.ModulePath+"/internal/disk", "Device")
	return dev != nil && types.Implements(recv, dev)
}

// hasNetArg reports whether any argument's static type comes from
// package net (net.Conn, net.Listener, concrete conns).
func hasNetArg(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if t := pass.TypesInfo.TypeOf(arg); t != nil && analysis.IsFromPackage(t, "net") {
			return true
		}
	}
	return false
}

// blockingFuncName reports whether a cross-package function name looks
// like an I/O entry point worth charging to its net-typed argument.
func blockingFuncName(name string) bool {
	for _, prefix := range []string{"Read", "Write", "Serve", "Copy"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// lockEvent is one point of interest in a function body, ordered by
// position.
type lockEvent struct {
	pos     token.Pos
	kind    int    // 0 acquire, 1 release, 2 blocking
	mutex   string // acquire/release: rendering of the mutex expression
	blocked string // blocking: the reason
}

// sweep walks one function body in source order, tracking which
// mutexes are visibly held, and reports blocking calls inside a held
// extent.
func sweep(pass *analysis.Pass, body *ast.BlockStmt, blocks map[*types.Func]string) {
	comms := commStmts(body)
	var events []lockEvent
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Independent scope: a closure runs without the spawner's
			// locks (goroutines) or under unknowable ones; recurse
			// separately so its own Lock/blocking pairs are checked.
			sweep(pass, n.Body, blocks)
			return false
		case *ast.DeferStmt:
			// A deferred unlock is represented by never releasing; other
			// deferred calls run at return, outside the linear extent.
			return false
		case *ast.SendStmt:
			if !comms[n.Pos()] {
				events = append(events, lockEvent{pos: n.Pos(), kind: 2, blocked: "channel send"})
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !comms[n.Pos()] {
				events = append(events, lockEvent{pos: n.Pos(), kind: 2, blocked: "channel receive"})
			}
		case *ast.SelectStmt:
			if !hasDefault(n) {
				events = append(events, lockEvent{pos: n.Pos(), kind: 2, blocked: "select"})
			}
		case *ast.RangeStmt:
			if _, ok := pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Chan); ok {
				events = append(events, lockEvent{pos: n.Pos(), kind: 2, blocked: "range over channel"})
			}
		case *ast.CallExpr:
			if mutex, kind, ok := lockCall(pass, n); ok {
				events = append(events, lockEvent{pos: n.Pos(), kind: kind, mutex: mutex})
				return true
			}
			if reason := callBlockReason(pass, n, blocks); reason != "" {
				events = append(events, lockEvent{pos: n.Pos(), kind: 2, blocked: reason})
			}
		}
		return true
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	held := make(map[string]bool)
	for _, ev := range events {
		switch ev.kind {
		case 0:
			held[ev.mutex] = true
		case 1:
			delete(held, ev.mutex)
		case 2:
			if len(held) == 0 {
				continue
			}
			names := make([]string, 0, len(held))
			for m := range held {
				names = append(names, m)
			}
			sort.Strings(names)
			pass.Reportf(ev.pos, "%s while holding %s; a critical section must not block — shrink it, or //lint:ignore blockinglock with the design reason",
				ev.blocked, strings.Join(names, ", "))
		}
	}
}

// lockCall classifies x.Lock/RLock/Unlock/RUnlock calls on sync
// mutexes, returning the rendered mutex expression and 0 (acquire) or
// 1 (release).
func lockCall(pass *analysis.Pass, call *ast.CallExpr) (string, int, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	var kind int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = 0
	case "Unlock", "RUnlock":
		kind = 1
	default:
		return "", 0, false
	}
	recv := analysis.Receiver(pass.TypesInfo, call)
	if recv == nil || !analysis.IsMutex(recv) {
		return "", 0, false
	}
	return types.ExprString(sel.X), kind, true
}

// Package datalog implements positive Datalog with naive and semi-naive
// bottom-up evaluation. It supports two of the paper's Section 4 points:
// with all EDB and IDB arities bounded, each bottom-up stage is a bounded
// conjunctive query, placing fixed-arity Datalog in W[1]; and Vardi's
// observation that an IDB of arity k inherently materializes Θ(nᵏ) tuples —
// the parameter provably in the exponent (experiment E7).
package datalog

import (
	"context"
	"fmt"

	"pyquery/internal/eval"
	"pyquery/internal/parallel"
	"pyquery/internal/query"
	"pyquery/internal/relation"
)

// Rule is a positive Datalog rule Head ← Body.
type Rule struct {
	Head query.Atom
	Body []query.Atom
}

func (r Rule) String() string {
	s := r.Head.String() + " :- "
	for i, a := range r.Body {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s
}

// Program is a set of rules with a distinguished goal (output) relation.
type Program struct {
	Rules []Rule
	Goal  string
}

// IDB returns the intensional relations (those appearing in rule heads)
// with their arities.
func (p *Program) IDB() map[string]int {
	out := make(map[string]int)
	for _, r := range p.Rules {
		out[r.Head.Rel] = len(r.Head.Args)
	}
	return out
}

// MaxArity returns the largest arity over the program's IDB and the given
// database's EDB — the quantity that must stay bounded for the W[1]
// membership argument of Section 4.
func (p *Program) MaxArity(db *query.DB) int {
	m := 0
	for _, ar := range p.IDB() {
		if ar > m {
			m = ar
		}
	}
	for _, name := range db.Names() {
		if w := db.MustRel(name).Width(); w > m {
			m = w
		}
	}
	return m
}

// Validate checks the program against the database: IDB names must not
// collide with EDB names, arities must be consistent, every body atom must
// reference a known relation, head variables must occur in the body, and
// head terms must be variables or constants (no arithmetic).
func (p *Program) Validate(db *query.DB) error {
	idb := p.IDB()
	for name := range idb {
		if _, ok := db.Rel(name); ok {
			return fmt.Errorf("datalog: IDB relation %q collides with an EDB relation", name)
		}
	}
	if _, ok := idb[p.Goal]; !ok {
		return fmt.Errorf("datalog: goal %q is not defined by any rule", p.Goal)
	}
	for _, r := range p.Rules {
		if len(r.Head.Args) != idb[r.Head.Rel] {
			return fmt.Errorf("datalog: relation %q used with inconsistent arities", r.Head.Rel)
		}
		headVars := make(map[query.Var]bool)
		for _, t := range r.Head.Args {
			if t.IsVar {
				headVars[t.Var] = true
			}
		}
		bodyVars := make(map[query.Var]bool)
		for _, a := range r.Body {
			if ar, ok := idb[a.Rel]; ok {
				if len(a.Args) != ar {
					return fmt.Errorf("datalog: IDB atom %v has wrong arity", a)
				}
			} else if rel, ok := db.Rel(a.Rel); ok {
				if len(a.Args) != rel.Width() {
					return fmt.Errorf("datalog: EDB atom %v has wrong arity", a)
				}
			} else {
				return fmt.Errorf("datalog: unknown relation %q in rule body", a.Rel)
			}
			for _, t := range a.Args {
				if t.IsVar {
					bodyVars[t.Var] = true
				}
			}
		}
		for v := range headVars {
			if !bodyVars[v] {
				return fmt.Errorf("datalog: unsafe rule %v: head variable x%d not in body", r, v)
			}
		}
	}
	return nil
}

// Stats reports evaluation work.
type Stats struct {
	Rounds  int
	Derived int // total tuples across all IDB relations at fixpoint
}

// Options selects the evaluation strategy.
type Options struct {
	// Naive re-fires every rule on the full relations each round
	// (the textbook fixpoint); the default is semi-naive with deltas.
	Naive bool
	// Parallelism is the worker count: the independent rule firings of
	// each round run across workers (each pre-filtering its derivations
	// against the current IDB into a per-firing buffer, merged serially
	// into the round's delta). 0 means GOMAXPROCS; 1 is the serial
	// evaluator. The fixpoint is identical at every setting; under Naive
	// the round count may differ (serial naive rounds see earlier rules'
	// derivations within the same round, parallel rounds do not).
	Parallelism int
	// Ctx, when cancelable, aborts the fixpoint — between rounds, between
	// a round's rule firings, and inside a running firing; Eval then
	// returns Ctx.Err().
	Ctx context.Context
}

// Eval computes the fixpoint and returns every IDB relation (keyed by name)
// plus statistics. The database is not modified.
func Eval(p *Program, db *query.DB, opts Options) (map[string]*relation.Relation, Stats, error) {
	if err := p.Validate(db); err != nil {
		return nil, Stats{}, err
	}
	idb := p.IDB()

	// Working database: EDB + current IDB (+ delta names for semi-naive).
	work := query.NewDB()
	for _, name := range db.Names() {
		work.Set(name, db.MustRel(name))
	}
	cur := make(map[string]*table, len(idb))
	for name, ar := range idb {
		cur[name] = newTable(ar)
		work.Set(name, cur[name].rel)
	}

	workers := parallel.Workers(opts.Parallelism)
	var stats Stats
	if opts.Naive {
		if err := evalNaive(opts.Ctx, p, work, cur, workers, &stats); err != nil {
			return nil, stats, err
		}
	} else if err := evalSemiNaive(opts.Ctx, p, idb, work, cur, workers, &stats); err != nil {
		return nil, stats, err
	}
	out := make(map[string]*relation.Relation, len(cur))
	for name, t := range cur {
		out[name] = t.rel
		stats.Derived += t.rel.Len()
	}
	return out, stats, nil
}

// firing is one rule evaluation of a round: the rule's head plus the body
// to run (for semi-naive, one IDB position substituted with its delta).
type firing struct {
	head query.Atom
	body []query.Atom
}

// fireAll evaluates the round's firings across the worker budget. The
// firings of a round are independent: they read the working database and
// the current IDB membership sets, both of which only change between
// rounds. Each firing pre-filters its derivations against cur into a
// per-firing buffer, so the serial merge that follows only touches novel
// rows. outs[i] belongs to firings[i]; merging in index order keeps the
// result reproducible regardless of scheduling.
func fireAll(ctx context.Context, firings []firing, work *query.DB, cur map[string]*table, workers int) ([]*relation.Relation, error) {
	outer, inner := parallel.Split(workers, len(firings))
	outs := make([]*relation.Relation, len(firings))
	errs := make([]error, len(firings))
	ctxFailed := parallel.ForEachCtx(ctx, outer, len(firings), func(i int) {
		f := firings[i]
		out, err := fireRule(ctx, f.head, f.body, work, inner)
		if err != nil {
			errs[i] = err
			return
		}
		dst := cur[f.head.Rel]
		if out.Empty() || dst.set.Len() == 0 {
			// Nothing to filter (or against): hand the firing's output over.
			outs[i] = out
			return
		}
		sel := make([]int32, 0, out.Len())
		for r := 0; r < out.Len(); r++ {
			if !dst.set.ContainsRel(out, r, dst.cols) {
				sel = append(sel, int32(r))
			}
		}
		outs[i] = out.Gather(sel)
	})
	if ctxFailed != nil {
		return nil, ctxFailed
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// evalNaive iterates every rule to fixpoint on the full relations. In
// serial mode rules fire sequentially and each sees the derivations of the
// rules before it in the same round (the historical behaviour); in parallel
// mode a round's firings run concurrently against the round-start state, so
// the round count can differ but the fixpoint cannot.
func evalNaive(ctx context.Context, p *Program, work *query.DB, cur map[string]*table, workers int, stats *Stats) error {
	if workers <= 1 {
		for {
			if err := parallel.CtxErr(ctx); err != nil {
				return err
			}
			stats.Rounds++
			grew := false
			for _, r := range p.Rules {
				out, err := fireRule(ctx, r.Head, r.Body, work, workers)
				if err != nil {
					return err
				}
				dst := cur[r.Head.Rel]
				for i := 0; i < out.Len(); i++ {
					if dst.addRel(out, i) {
						grew = true
					}
				}
			}
			if !grew {
				return nil
			}
		}
	}
	firings := make([]firing, len(p.Rules))
	for i, r := range p.Rules {
		firings[i] = firing{head: r.Head, body: r.Body}
	}
	for {
		if err := parallel.CtxErr(ctx); err != nil {
			return err
		}
		stats.Rounds++
		outs, err := fireAll(ctx, firings, work, cur, workers)
		if err != nil {
			return err
		}
		added := make(map[string]*relation.Relation)
		for i, out := range outs {
			name := firings[i].head.Rel
			dst := cur[name]
			for r := 0; r < out.Len(); r++ {
				if dst.addRel(out, r) {
					if added[name] == nil {
						added[name] = query.NewTable(dst.rel.Width())
					}
					added[name].AppendRowOf(out, r)
				}
			}
		}
		if len(added) == 0 {
			return nil
		}
		// The tables grew in place; record the inserted tuples so the
		// changelog and per-relation generations stay truthful.
		for name, a := range added {
			work.GrewInPlace(name, a)
		}
	}
}

// evalSemiNaive runs the delta-driven fixpoint. Every round fires the
// rules' delta-substituted bodies — concurrently when workers > 1 — and
// merges the per-firing buffers into the next delta serially.
func evalSemiNaive(ctx context.Context, p *Program, idb map[string]int, work *query.DB, cur map[string]*table, workers int, stats *Stats) error {
	delta := make(map[string]*relation.Relation, len(idb))
	for name, ar := range idb {
		delta[name] = query.NewTable(ar)
		work.Set(deltaName(name), delta[name])
	}

	// Round 0: rules with no IDB body atoms seed the deltas.
	var seeds []firing
	for _, r := range p.Rules {
		if countIDBAtoms(r, idb) == 0 {
			seeds = append(seeds, firing{head: r.Head, body: r.Body})
		}
	}
	stats.Rounds++
	outs, err := fireAll(ctx, seeds, work, cur, workers)
	if err != nil {
		return err
	}
	for i, out := range outs {
		name := seeds[i].head.Rel
		for r := 0; r < out.Len(); r++ {
			if cur[name].addRel(out, r) {
				delta[name].AppendRowOf(out, r)
			}
		}
	}
	for name, d := range delta {
		work.GrewInPlace(name, d)
	}

	// Recursive firings: one per IDB body position per rule, substituting
	// the delta relation there (the standard semi-naive rewriting). Each
	// round re-installs the next delta under the same Δ-name via work.Set
	// (which also invalidates the statistics memo), so the firing list is
	// built once and resolves the current delta by name.
	var recs []firing
	for _, r := range p.Rules {
		if countIDBAtoms(r, idb) == 0 {
			continue
		}
		for pos, a := range r.Body {
			if _, ok := idb[a.Rel]; !ok {
				continue
			}
			body := make([]query.Atom, len(r.Body))
			copy(body, r.Body)
			body[pos] = query.Atom{Rel: deltaName(a.Rel), Args: a.Args}
			recs = append(recs, firing{head: r.Head, body: body})
		}
	}
	for {
		total := 0
		for _, d := range delta {
			total += d.Len()
		}
		if total == 0 {
			return nil
		}
		if err := parallel.CtxErr(ctx); err != nil {
			return err
		}
		stats.Rounds++
		next := make(map[string]*table, len(idb))
		for name, ar := range idb {
			next[name] = newTable(ar)
		}
		outs, err := fireAll(ctx, recs, work, cur, workers)
		if err != nil {
			return err
		}
		// The firings already filtered against cur (stable within the
		// round); next.add removes duplicates across firings.
		for i, out := range outs {
			dst := next[recs[i].head.Rel]
			for r := 0; r < out.Len(); r++ {
				dst.addRel(out, r)
			}
		}
		for name := range idb {
			// Promote: cur += next; delta := next. The new delta is
			// installed via Set (not swapped in place) so the statistics
			// memo is invalidated even when consecutive rounds' deltas have
			// equal cardinality but different contents — the per-round
			// re-planning contract depends on it.
			nd := query.NewTable(next[name].rel.Width())
			for i := 0; i < next[name].rel.Len(); i++ {
				cur[name].addRel(next[name].rel, i)
				nd.AppendRowOf(next[name].rel, i)
			}
			delta[name] = nd
			work.Set(deltaName(name), nd)
			work.GrewInPlace(name, nd)
		}
	}
}

// table is a relation with a keyed membership set for O(1) dedup.
type table struct {
	rel  *relation.Relation
	set  *relation.TupleSet
	cols []int // 0..arity-1: probes read whole rows
}

func newTable(arity int) *table {
	cols := make([]int, arity)
	for i := range cols {
		cols[i] = i
	}
	return &table{rel: query.NewTable(arity), set: relation.NewTupleSet(arity), cols: cols}
}

// addRel inserts row i of r if new, reading the columns in place, with no
// row materialization.
func (t *table) addRel(r *relation.Relation, i int) bool {
	if !t.set.AddRel(r, i, t.cols) {
		return false
	}
	t.rel.AppendRowOf(r, i)
	return true
}

// EvalGoal evaluates the program and returns just the goal relation.
func EvalGoal(p *Program, db *query.DB, opts Options) (*relation.Relation, Stats, error) {
	rels, stats, err := Eval(p, db, opts)
	if err != nil {
		return nil, stats, err
	}
	return rels[p.Goal], stats, nil
}

func deltaName(name string) string { return "Δ" + name }

func countIDBAtoms(r Rule, idb map[string]int) int {
	n := 0
	for _, a := range r.Body {
		if _, ok := idb[a.Rel]; ok {
			n++
		}
	}
	return n
}

// fireRule evaluates one rule firing — the body as a conjunctive query
// with the head as output — over the working database, threading the
// caller's worker budget into the inner evaluation. It backs both the
// sequential fixpoint rounds (workers ≤ 1 there, so no goroutines spawn)
// and fireAll's concurrent firings, where the leftover per-firing budget
// from parallel.Split lets a lone firing spend the whole budget in the
// backtracker's fan-out. ctx is the evaluation's: a cancel stops the
// running firing, not only the next one.
func fireRule(ctx context.Context, head query.Atom, body []query.Atom, work *query.DB, workers int) (*relation.Relation, error) {
	q := &query.CQ{Head: head.Args, Atoms: body}
	c, err := eval.Compile(q, work, eval.Options{Parallelism: workers}, nil)
	if err != nil {
		return nil, err
	}
	return c.Exec(ctx, nil, nil)
}

// VardiFamily returns the arity-k Datalog program of experiment E7:
//
//	T(x₁,…,x_k) ← E(x₁,x₂), …, E(x_{k−1},x_k)
//	T(x₂,…,x_k,y) ← T(x₁,…,x_k), E(x_k,y)
//
// On the complete digraph with self-loops the IDB holds exactly nᵏ tuples,
// exhibiting Vardi's point that arity-k recursion puts k in the exponent of
// the data complexity. k = 1 degenerates to T(x) ← E(x,x) plus the slide.
func VardiFamily(k int) *Program {
	if k < 1 {
		panic("datalog: VardiFamily needs k ≥ 1")
	}
	head := make([]query.Term, k)
	for i := range head {
		head[i] = query.V(query.Var(i))
	}
	var base []query.Atom
	if k == 1 {
		base = []query.Atom{query.NewAtom("E", query.V(0), query.V(0))}
	} else {
		for i := 0; i+1 < k; i++ {
			base = append(base, query.NewAtom("E", query.V(query.Var(i)), query.V(query.Var(i+1))))
		}
	}
	slideHead := make([]query.Term, k)
	for i := 1; i < k; i++ {
		slideHead[i-1] = query.V(query.Var(i))
	}
	slideHead[k-1] = query.V(query.Var(k))
	slideBody := []query.Atom{
		{Rel: "T", Args: head},
		query.NewAtom("E", query.V(query.Var(k-1)), query.V(query.Var(k))),
	}
	return &Program{
		Rules: []Rule{
			{Head: query.Atom{Rel: "T", Args: head}, Body: base},
			{Head: query.Atom{Rel: "T", Args: slideHead}, Body: slideBody},
		},
		Goal: "T",
	}
}

// Reachability returns the textbook transitive-closure program over EDB E.
func Reachability() *Program {
	return &Program{
		Rules: []Rule{
			{Head: query.NewAtom("Reach", query.V(0), query.V(1)),
				Body: []query.Atom{query.NewAtom("E", query.V(0), query.V(1))}},
			{Head: query.NewAtom("Reach", query.V(0), query.V(2)),
				Body: []query.Atom{
					query.NewAtom("Reach", query.V(0), query.V(1)),
					query.NewAtom("E", query.V(1), query.V(2))}},
		},
		Goal: "Reach",
	}
}

// SameGeneration returns the classic same-generation program over EDB Par.
func SameGeneration() *Program {
	return &Program{
		Rules: []Rule{
			// Every person mentioned (as child or parent) is in their own
			// generation.
			{Head: query.NewAtom("SG", query.V(0), query.V(0)),
				Body: []query.Atom{query.NewAtom("Par", query.V(0), query.V(1))}},
			{Head: query.NewAtom("SG", query.V(1), query.V(1)),
				Body: []query.Atom{query.NewAtom("Par", query.V(0), query.V(1))}},
			{Head: query.NewAtom("SG", query.V(0), query.V(1)),
				Body: []query.Atom{
					query.NewAtom("Par", query.V(0), query.V(2)),
					query.NewAtom("SG", query.V(2), query.V(3)),
					query.NewAtom("Par", query.V(1), query.V(3))}},
		},
		Goal: "SG",
	}
}

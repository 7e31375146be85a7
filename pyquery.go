// Package pyquery is a library for parameterized-complexity-aware database
// query evaluation, reproducing Papadimitriou & Yannakakis, "On the
// Complexity of Database Queries" (PODS 1997 / JCSS 1999).
//
// The package exposes six engines behind one Evaluate call:
//
//   - Yannakakis' acyclic-join algorithm for pure acyclic conjunctive
//     queries (polynomial in input + output);
//   - the paper's Theorem 2 color-coding engine for acyclic conjunctive
//     queries with ≠ atoms (fixed-parameter tractable: f(k)·n log n);
//   - Klug-style preprocessing plus generic evaluation for queries with
//     order comparisons (W[1]-complete even when acyclic — Theorem 3);
//   - a hypertree-decomposition engine for cyclic pure queries of
//     generalized hypertree width ≤ 3 (bags materialized by hash joins,
//     then the shared Yannakakis passes — polynomial for fixed width,
//     cost-gated against the backtracker estimate);
//   - a worst-case-optimal leapfrog-triejoin engine for dense cyclic pure
//     queries: sorted-trie intersections under one global variable order,
//     running in Õ(AGM bound) — selected when that bound beats the
//     backtracker's skew-aware worst case;
//   - generic backtracking join for everything else (the n^{O(q)} baseline
//     whose exponent Theorem 1 classifies as inherent).
//
// Plan reports which engine a query gets and why. The reductions behind the
// paper's W-hierarchy classification live in internal/reductions and are
// exercised by cmd/reduce and cmd/benchrunner.
package pyquery

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"pyquery/internal/core"
	"pyquery/internal/decomp"
	"pyquery/internal/eval"
	"pyquery/internal/order"
	"pyquery/internal/parser"
	"pyquery/internal/plan"
	"pyquery/internal/query"
	"pyquery/internal/relation"
	"pyquery/internal/wcoj"
)

// Re-exported core types. Downstream code uses pyquery.CQ etc.; the
// internal packages stay encapsulated.
type (
	// CQ is a conjunctive query with optional ≠ and comparison atoms.
	CQ = query.CQ
	// FOQuery is a first-order query.
	FOQuery = query.FOQuery
	// DB is a database instance.
	DB = query.DB
	// Relation is a set of tuples.
	Relation = relation.Relation
	// Value is a domain element.
	Value = relation.Value
	// Term is a variable or constant in a query.
	Term = query.Term
	// Var identifies a query variable.
	Var = query.Var
	// Atom is a relational atom.
	Atom = query.Atom
	// Ineq is an inequality (≠) atom.
	Ineq = query.Ineq
	// Cmp is a comparison (<, ≤) atom.
	Cmp = query.Cmp
	// Parser parses the textual query syntax.
	Parser = parser.Parser
	// Symbols interns symbolic constants.
	Symbols = parser.Symbols
	// Stats reports what the Theorem 2 engine did.
	Stats = core.Stats
)

// Options configures evaluation. The struct is comparable — it is half of
// the plan-cache key — so every field must stay a plain value.
type Options struct {
	// Strategy, C, Delta, Seed, and NoPushdown configure the Theorem 2
	// color-coding engine (see core.Options) and are ignored elsewhere:
	// the hash family, the Monte-Carlo confidence multiplier (default 3),
	// the whp-family failure bound (default 1e-9), the seed of every
	// randomized choice, and the I₂ selection pushdown ablation (A1).
	Strategy   core.Strategy
	C          float64
	Delta      float64
	Seed       int64
	NoPushdown bool
	// NoDecomp disables the hypertree-decomposition engine (ablation A6):
	// cyclic low-width queries fall back to the generic backtracker.
	NoDecomp bool
	// NoWCOJ disables the worst-case-optimal leapfrog-triejoin engine
	// (ablation A7): dense cyclic queries that would route there fall back
	// to the generic backtracker (or the decomposition engine when its own
	// gate fires first).
	NoWCOJ bool
	// NoCache makes the Evaluate* free functions plan from scratch instead
	// of consulting the per-database prepared-plan cache — for benchmarking
	// the amortization (experiment E9) and for callers that never repeat a
	// query.
	NoCache bool
	// Parallelism is the worker count of whichever engine the router
	// selects, frozen into the plan at Prepare. 0 means GOMAXPROCS; 1 is
	// the serial engine. Results are set-equal at every setting.
	Parallelism int

	// The resource governor, enforced by the prepared layer: engines
	// receive the resulting meter, not the raw limits.

	// MaxRows caps the total materialized rows of one execution (answer
	// rows, per-worker intermediates, tree-pass results, decomposition
	// bags). 0 means unlimited. Exceeding it surfaces ErrRowLimit.
	MaxRows int64
	// MemoryLimit caps the approximate materialized bytes of one execution
	// (rows × width × 8; see governor.RelBytes). 0 means unlimited.
	// Exceeding it surfaces ErrMemoryLimit.
	MemoryLimit int64
	// Timeout, when positive, derives a per-execution deadline from the
	// caller's context. Expiry surfaces ErrTimeout (which also matches
	// context.DeadlineExceeded).
	Timeout time.Duration
	// Degrade softens a decomposition budget trip: when materializing the
	// bags exceeds MaxRows/MemoryLimit, the bags are released and the query
	// falls back to the generic backtracker instead of failing.
	Degrade bool
}

// core projects the options onto the fields the Theorem 2 engine reads.
func (o Options) core() core.Options {
	return core.Options{Strategy: o.Strategy, C: o.C, Delta: o.Delta, Seed: o.Seed,
		NoPushdown: o.NoPushdown, Parallelism: o.Parallelism}
}

// Constructors re-exported for query building.
var (
	// V builds a variable term.
	V = query.V
	// C builds a constant term.
	C = query.C
	// NewAtom builds a relational atom.
	NewAtom = query.NewAtom
	// NeqVars builds x ≠ y.
	NeqVars = query.NeqVars
	// NeqConst builds x ≠ c.
	NeqConst = query.NeqConst
	// Lt builds a strict comparison.
	Lt = query.Lt
	// Le builds a weak comparison.
	Le = query.Le
	// NewDB returns an empty database.
	NewDB = query.NewDB
	// NewTable returns an empty base relation of the given arity.
	NewTable = query.NewTable
	// Table builds a base relation from rows.
	Table = query.Table
	// NewParser returns a parser with a fresh symbol table.
	NewParser = parser.New
	// NewSymbols returns an empty symbol table.
	NewSymbols = parser.NewSymbols
	// LoadCSV loads a CSV stream as a relation.
	LoadCSV = parser.LoadCSV
)

// Engine identifies which evaluation algorithm Plan selects.
type Engine int

// Engines, in dispatch order.
const (
	// EngineYannakakis: pure acyclic conjunctive query.
	EngineYannakakis Engine = iota
	// EngineColorCoding: acyclic conjunctive query with ≠ atoms (Theorem 2).
	EngineColorCoding
	// EngineComparisons: comparison atoms present — consistency check,
	// equality collapse, then generic evaluation (Theorem 3 says no FPT
	// algorithm is expected).
	EngineComparisons
	// EngineGeneric: cyclic query — backtracking join, n^{O(q)}.
	EngineGeneric
	// EngineDecomp: cyclic pure query with a width-≤3 generalized hypertree
	// decomposition — bags of ≤3 atoms are materialized by hash joins and
	// the bag tree runs the shared Yannakakis passes, polynomial for fixed
	// width. Plan reports the class structurally; the database-dependent
	// cost gate in PlanDB/EvaluateOpts may still keep the backtracker when
	// the bag estimates lose (and Options.NoDecomp forces that fallback).
	EngineDecomp
	// EngineWCOJ: cyclic pure query the decomposition engine passed over,
	// whose AGM fractional-cover bound beats the backtracker's skew-aware
	// worst-case cost — evaluated by leapfrog triejoin over sorted tries, in
	// time Õ(AGM). Database-dependent, so only PlanDB/EvaluateOpts report it
	// (Plan's query-only classification cannot); Options.NoWCOJ forces the
	// generic fallback.
	EngineWCOJ
)

func (e Engine) String() string {
	switch e {
	case EngineYannakakis:
		return "yannakakis (acyclic, poly input+output)"
	case EngineColorCoding:
		return "color-coding (Theorem 2, f(k)·n log n)"
	case EngineComparisons:
		return "comparisons (Theorem 3 territory, generic join)"
	case EngineGeneric:
		return "generic backtracking join (n^O(q))"
	case EngineDecomp:
		return "hypertree decomposition (bag join + Yannakakis, width ≤ 3)"
	case EngineWCOJ:
		return "worst-case-optimal join (leapfrog triejoin, Õ(AGM bound))"
	}
	return "unknown"
}

// classify applies the query-only class boundaries shared by Plan and
// route. EngineDecomp here means "cyclic pure candidate" — whether a
// width-≤3 decomposition actually exists (and, with a database, whether it
// wins the cost gate) is the caller's refinement.
func classify(q *CQ) Engine {
	if len(q.Cmps) > 0 {
		for _, c := range q.Cmps {
			if c.Left.IsVar || c.Right.IsVar {
				return EngineComparisons
			}
		}
	}
	if !core.IsAcyclicWithIneqs(q) {
		// Cyclic: bounded-width pure queries are decomposition candidates
		// (≠ atoms and comparisons stay with the backtracker, which checks
		// them mid-plan).
		if len(q.Ineqs) == 0 {
			return EngineDecomp
		}
		return EngineGeneric
	}
	if len(q.Ineqs) > 0 {
		return EngineColorCoding
	}
	return EngineYannakakis
}

// Plan selects the engine for a query.
func Plan(q *CQ) Engine {
	e := classify(q)
	if e == EngineDecomp && !decomp.Decomposable(q) {
		return EngineGeneric
	}
	return e
}

// routing is the one routing decision for a (query, database, options)
// triple. Prepared.compile materializes it into a program and PlanDB renders
// it into a report, so the two cannot disagree.
type routing struct {
	engine Engine
	// unsat marks queries whose constraints alone force the empty answer
	// (an x≠x inequality, inconsistent or ground-false comparisons): no
	// engine runs, the statement compiles to the empty program.
	unsat bool
	// q is the query the engine executes: the order.Collapse rewrite for
	// EngineComparisons — that class is nothing but the rewrite in front of
	// the backtracker — and the input query otherwise.
	q *CQ
	// i1, i2, k describe the Theorem 2 inequality partition
	// (EngineColorCoding only).
	i1, i2, k int
	// decomp and wcoj are the gate inputs that were consulted, kept for
	// the report (nil when a gate was skipped or found nothing). engine is
	// EngineDecomp/EngineWCOJ exactly when the respective Use verdict fired.
	decomp *decomp.Route
	wcoj   *wcoj.Route
}

// groundFalseCmps reports whether a ground comparison already falsifies the
// query (markers from head substitution, or user-written constants).
func groundFalseCmps(q *CQ) bool {
	for _, c := range q.Cmps {
		if !c.Left.IsVar && !c.Right.IsVar && !c.Holds(c.Left.Const, c.Right.Const) {
			return true
		}
	}
	return false
}

// route decides which engine runs q on db. Parameterized templates always
// take the compiled backtracker (parameters become pre-bound search slots).
// Otherwise the query-only class is refined against the database: a cyclic
// pure query goes to the decomposition engine when a width-≤3 decomposition
// exists and its bag estimates beat the backtracker (Options.NoDecomp,
// ablation A6, skips the gate); failing that, to the leapfrog engine when
// the AGM bound strictly beats the backtracker's skew-aware worst case —
// both are bounds, so the comparison is like-for-like (Options.NoWCOJ,
// ablation A7, skips it); failing both, to the backtracker.
func route(q *CQ, db *DB, opts Options) (routing, error) {
	rt := routing{engine: EngineGeneric, q: q}
	if len(q.Params()) > 0 {
		return rt, nil
	}
	// A cyclic pure candidate (classify's EngineDecomp) stays with the
	// backtracker unless one of the gates below fires.
	class := classify(q)
	if class != EngineDecomp {
		rt.engine = class
	}
	if groundFalseCmps(q) {
		rt.unsat = true
		return rt, nil
	}
	switch class {
	case EngineColorCoding:
		i1, i2, v1, ok := core.Partition(q)
		rt.i1, rt.i2, rt.k, rt.unsat = len(i1), len(i2), len(v1), !ok
	case EngineComparisons:
		qc, err := order.Collapse(q)
		switch {
		case errors.Is(err, order.ErrInconsistent):
			rt.unsat = true
		case err != nil:
			return rt, err
		default:
			rt.q = qc
		}
	case EngineDecomp:
		if !opts.NoDecomp {
			if d, err := decomp.PlanFor(q, db); err == nil {
				rt.decomp = d
				if d.Use {
					rt.engine = EngineDecomp
					break
				}
			}
		}
		if !opts.NoWCOJ {
			if w, err := wcoj.PlanFor(q, db); err == nil {
				rt.wcoj = w
				if w.Use {
					rt.engine = EngineWCOJ
				}
			}
		}
	}
	return rt, nil
}

// Evaluate computes Q(d), dispatching to the best engine for the query's
// class. The answer uses the positional schema 0…len(head)−1. Evaluation
// uses the default options — in particular Parallelism 0, i.e. GOMAXPROCS
// workers; pass Options{Parallelism: 1} to EvaluateOpts for the serial
// engines.
func Evaluate(q *CQ, db *DB) (*Relation, error) {
	return EvaluateOpts(q, db, Options{})
}

// EvaluateOpts is Evaluate with explicit options. Options.Parallelism is
// forwarded to whichever engine the router selects (0 = GOMAXPROCS,
// 1 = serial); the answer set is the same at every parallelism level.
//
// Since the prepared-statement redesign this is a thin wrapper over the
// per-database plan cache: the (query, options) pair is fingerprinted,
// compiled once into a Prepared, and re-executed on repeats — so one-shot
// callers that loop over the same query silently amortize all planning.
// Options.NoCache restores true from-scratch evaluation.
func EvaluateOpts(q *CQ, db *DB, opts Options) (*Relation, error) {
	p, err := prepared(q, db, opts)
	if err != nil {
		return nil, err
	}
	return p.Exec(context.Background())
}

// EvaluateBool decides Q(d) ≠ ∅ with the dispatched engine.
func EvaluateBool(q *CQ, db *DB) (bool, error) {
	return EvaluateBoolOpts(q, db, Options{})
}

// EvaluateBoolOpts is EvaluateBool with explicit options; like
// EvaluateOpts it executes through the per-database plan cache.
func EvaluateBoolOpts(q *CQ, db *DB, opts Options) (bool, error) {
	p, err := prepared(q, db, opts)
	if err != nil {
		return false, err
	}
	return p.ExecBool(context.Background())
}

// Decide answers the decision problem t ∈ Q(d). It executes through the
// plan cache's prepared statement (head variables become pre-bound search
// slots), so repeated membership tests against one query amortize instead
// of re-planning a head-bound query per call.
func Decide(q *CQ, db *DB, t []Value) (bool, error) {
	p, err := prepared(q, db, Options{})
	if err != nil {
		return false, err
	}
	return p.Decide(context.Background(), t)
}

// EvaluateFO evaluates a first-order query under active-domain semantics.
func EvaluateFO(q *FOQuery, db *DB) (res *Relation, err error) {
	defer recoverInternal("firstorder", &err)
	return eval.FirstOrder(q, db)
}

// Explain describes the dispatch decision and, for the color-coding
// engine, the parameter split the paper's Theorem 2 works with. It
// inspects only the query; PlanDB/ExplainDB add the database-dependent
// cost-based plan.
func Explain(q *CQ) string {
	e := Plan(q)
	s := fmt.Sprintf("engine: %v\nquery size q=%d, variables v=%d", e, q.Size(), q.NumVars())
	if e == EngineColorCoding {
		i1, i2, v1, ok := core.Partition(q)
		if !ok {
			return s + "\nunsatisfiable inequality (x≠x): empty answer"
		}
		s += fmt.Sprintf("\nI1 (hashed) inequalities: %d, I2 (pushed-down): %d, |V1|=k=%d",
			len(i1), len(i2), len(v1))
	}
	return s
}

// PlanStep is one ordered join step of a PlanReport, re-exported from
// internal/plan.
type PlanStep = plan.Step

// PlanReport is the structured planning outcome for a (query, database)
// pair: the routing decision plus the cost-based plan the selected engine
// will execute, with estimated cardinalities from the shared statistics
// layer (internal/stats cached on the DB, internal/plan's distinct-count
// selectivity model).
type PlanReport struct {
	// Engine is the routing decision (identical to Plan's).
	Engine Engine
	// QuerySize and NumVars are the paper's two parameters q and v.
	QuerySize, NumVars int
	// K, I1, I2 describe the Theorem 2 inequality partition
	// (EngineColorCoding only): |V₁| and the I₁/I₂ sizes.
	K, I1, I2 int
	// Unsatisfiable marks queries whose constraints alone force the empty
	// answer (an x≠x inequality, or inconsistent comparisons); no plan is
	// produced.
	Unsatisfiable bool
	// Steps is the cost-based join order — the order the generic
	// backtracker executes, built from the same model that weights the
	// acyclic engines' join trees. Rows is each atom's exact reduced
	// cardinality; Est the estimated cumulative cardinality.
	Steps []PlanStep
	// RootAtom indexes q.Atoms at the weighted join-tree root (acyclic
	// engines only; -1 otherwise).
	RootAtom int
	// Width and Bags describe the width-≤3 hypertree decomposition of a
	// structurally eligible cyclic query (Width 0 when none was
	// considered). When the bag estimates beat the backtracker the Engine
	// stays EngineDecomp and RootBag is the estimate-weighted bag-tree
	// root; otherwise the Engine field reports the EngineGeneric fallback
	// and the rendered report notes the rejected decomposition.
	Width int
	Bags  []PlanBag
	// DecompCost is Σ estimated bag materialization costs — the number the
	// cost gate weighs against EstCost.
	DecompCost float64
	// RootBag indexes Bags at the weighted bag-tree root (-1 otherwise).
	RootBag int
	// AGMCost, WorstCost, and WCOJOrder describe the worst-case-optimal
	// route of a cyclic pure query the decomposition engine passed over:
	// the AGM fractional-cover bound on the join's output, the skew-aware
	// worst-case cost of the backtracker it was weighed against, and the
	// global variable order (all zero/empty when wcoj was not considered).
	// Engine is EngineWCOJ exactly when AGMCost strictly beat WorstCost.
	AGMCost, WorstCost float64
	WCOJOrder          string
	// EstRows is the estimated answer cardinality.
	EstRows float64
	// EstCost is the plan's cost annotation: the sum of estimated
	// intermediate cardinalities, a proxy for the tuples a backtracking
	// join enumerates.
	EstCost float64
}

// PlanBag is the report view of one decomposition bag.
type PlanBag struct {
	// Atoms indexes q.Atoms at the bag's guard atoms.
	Atoms []int
	// Label renders the guard atoms, Vars the bag's χ.
	Label, Vars string
	// Est is the bag's estimated materialized cardinality.
	Est float64
}

// varTuple renders a variable list as (x0,x1,…).
func varTuple(vars []Var) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range vars {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "x%d", v)
	}
	b.WriteByte(')')
	return b.String()
}

// PlanDB plans q against db: it renders the routing decision a default-
// options Prepare freezes, then builds the cost-based plan (reduced atom
// cardinalities, cached column statistics, estimated intermediate sizes)
// without evaluating the query. For EngineComparisons the plan describes the
// collapsed query the engine actually runs. For EngineColorCoding the report
// weights atoms by their reduced sizes before the I₂ selection pushdown
// (which is internal to the engine), so when a pushed-down inequality
// changes the relative sizes the executed join-tree root can differ from
// RootAtom; the generic and Yannakakis plans match the executed order
// exactly.
func PlanDB(q *CQ, db *DB) (*PlanReport, error) {
	rt, err := route(q, db, Options{})
	if err != nil {
		return nil, err
	}
	r := &PlanReport{Engine: rt.engine, QuerySize: q.Size(), NumVars: q.NumVars(), RootAtom: -1, RootBag: -1,
		Unsatisfiable: rt.unsat, I1: rt.i1, I2: rt.i2, K: rt.k}
	if rt.unsat {
		return r, nil
	}
	pl, err := eval.PlanFor(rt.q, db)
	if err != nil {
		return nil, err
	}
	r.Steps = pl.Steps
	r.EstRows = pl.EstRows
	r.EstCost = pl.Cost
	if (r.Engine == EngineYannakakis || r.Engine == EngineColorCoding) && len(q.Atoms) > 0 {
		h, _ := plan.AtomHypergraph(q)
		if f, ok := h.JoinForest(); ok {
			r.RootAtom = plan.OrderForest(f, pl.Inputs).JoinTree().Roots[0]
		}
	}
	if d := rt.decomp; d != nil {
		r.Width = d.Width
		r.DecompCost = d.Cost
		for _, bag := range d.Bags {
			labels := make([]string, len(bag.Guards))
			for i, ai := range bag.Guards {
				labels[i] = q.Atoms[ai].String()
			}
			r.Bags = append(r.Bags, PlanBag{Atoms: bag.Guards, Est: bag.Est,
				Label: "{" + strings.Join(labels, ", ") + "}", Vars: varTuple(bag.Vars)})
		}
		if d.Use {
			r.RootBag = d.Root
		}
	}
	if w := rt.wcoj; w != nil {
		r.AGMCost, r.WorstCost, r.WCOJOrder = w.Cost, w.WorstCost, varTuple(w.Order)
	}
	return r, nil
}

// fmtEst renders a cardinality estimate compactly and deterministically.
func fmtEst(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

// String renders the report in the fixed multi-line layout qeval -explain
// prints (locked by the facade's golden tests).
func (r *PlanReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %v\n", r.Engine)
	fmt.Fprintf(&b, "query size q=%d, variables v=%d", r.QuerySize, r.NumVars)
	if r.Engine == EngineColorCoding && !r.Unsatisfiable {
		fmt.Fprintf(&b, "\nI1 (hashed) inequalities: %d, I2 (pushed-down): %d, |V1|=k=%d",
			r.I1, r.I2, r.K)
	}
	if r.Unsatisfiable {
		b.WriteString("\nunsatisfiable constraints: empty answer")
		return b.String()
	}
	if len(r.Steps) > 0 {
		b.WriteString("\nplan (stats-driven join order):")
		for i, st := range r.Steps {
			fmt.Fprintf(&b, "\n  %d. %s rows=%d binds=%d est=%s", i+1, st.Label, st.Rows, st.NewVars, fmtEst(st.Est))
		}
		fmt.Fprintf(&b, "\nestimated search cost: %s (Σ intermediate cardinalities)", fmtEst(r.EstCost))
	}
	if r.Width > 0 {
		if r.Engine == EngineDecomp {
			fmt.Fprintf(&b, "\ndecomposition (width %d, est cost %s):", r.Width, fmtEst(r.DecompCost))
			for i, bag := range r.Bags {
				fmt.Fprintf(&b, "\n  bag %d. %s vars=%s est=%s", i+1, bag.Label, bag.Vars, fmtEst(bag.Est))
			}
			fmt.Fprintf(&b, "\nbag-tree root: bag %d", r.RootBag+1)
		} else {
			fmt.Fprintf(&b, "\ndecomposition (width %d) rejected: est cost %s ≥ backtracker %s",
				r.Width, fmtEst(r.DecompCost), fmtEst(r.EstCost))
		}
	}
	if r.WCOJOrder != "" {
		if r.Engine == EngineWCOJ {
			fmt.Fprintf(&b, "\nworst-case-optimal join: order %s, AGM bound %s < worst-case backtracker %s",
				r.WCOJOrder, fmtEst(r.AGMCost), fmtEst(r.WorstCost))
		} else {
			fmt.Fprintf(&b, "\nworst-case-optimal join rejected: AGM bound %s ≥ worst-case backtracker %s",
				fmtEst(r.AGMCost), fmtEst(r.WorstCost))
		}
	}
	if r.RootAtom >= 0 {
		for _, st := range r.Steps {
			if st.Atom == r.RootAtom {
				fmt.Fprintf(&b, "\njoin-tree root: %s (atom %d)", st.Label, r.RootAtom)
				break
			}
		}
	}
	fmt.Fprintf(&b, "\nestimated answer rows: %s", fmtEst(r.EstRows))
	return b.String()
}

// ExplainDB is Explain with database statistics: the rendered PlanDB
// report.
func ExplainDB(q *CQ, db *DB) (string, error) {
	r, err := PlanDB(q, db)
	if err != nil {
		return "", err
	}
	return r.String(), nil
}

// EvaluateStats runs the Theorem 2 engine explicitly with options and
// returns its statistics; the query must be acyclic with inequalities.
func EvaluateStats(q *CQ, db *DB, opts Options) (res *Relation, st Stats, err error) {
	defer recoverInternal("colorcoding", &err)
	pr, err := core.Compile(q, db, opts.core())
	if err != nil {
		return nil, Stats{}, err
	}
	res, err = pr.Exec(context.Background(), nil, nil)
	return res, pr.Stats(), err
}

// IneqFormula is a positive ∧/∨ combination of ≠ atoms — the Section 5
// extension evaluated by EvaluateIneqFormula.
type IneqFormula = core.IneqFormula

// Inequality formula constructors.
type (
	// IneqAtom wraps one ≠ atom as a formula leaf.
	IneqAtom = core.IneqAtom
	// IneqAnd is a conjunction of inequality formulas.
	IneqAnd = core.IneqAnd
	// IneqOr is a disjunction of inequality formulas.
	IneqOr = core.IneqOr
)

// EvaluateIneqFormula evaluates an acyclic pure conjunctive query under an
// arbitrary ∧/∨ formula of inequality atoms (the paper's parameter-q
// extension of Theorem 2). The query must carry no ≠/comparison atoms of
// its own — the constraints live in φ.
func EvaluateIneqFormula(q *CQ, phi IneqFormula, db *DB, opts Options) (res *Relation, err error) {
	defer recoverInternal("colorcoding", &err)
	return core.EvaluateIneqFormula(q, phi, db, opts.core())
}

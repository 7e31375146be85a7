package pyquery

// RouteOf exposes route's decision under opts to the external test package:
// the engine and the unsatisfiable verdict — what PlanDB renders for the
// default options.
func RouteOf(q *CQ, db *DB, opts Options) (Engine, bool, error) {
	rt, err := route(q, db, opts)
	return rt.engine, rt.unsat, err
}

// FrozeEmptyProgram reports whether the statement's current compilation is
// the empty program (no engine runs).
func FrozeEmptyProgram(p *Prepared) bool {
	_, ok := p.state.Load().run.(emptyProgram)
	return ok
}

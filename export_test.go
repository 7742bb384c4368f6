package esd

// IdleSolvers reports how many idle solvers p holds.
func IdleSolvers(p *Program) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

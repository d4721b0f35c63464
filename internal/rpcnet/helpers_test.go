package rpcnet

// IdleConns reports the connections currently checked in.
func (p *Pool) IdleConns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

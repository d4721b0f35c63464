package shipq

// PendingCount returns the number of dirty origins awaiting a drain.
func (q *Queue) PendingCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

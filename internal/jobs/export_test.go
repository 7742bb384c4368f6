package jobs

import (
	"context"
	"fmt"
)

// Wait blocks until the job reaches a terminal state (or ctx is done)
// and returns its final record.
func (m *Manager) Wait(ctx context.Context, id string) (*Job, error) {
	ch, stop, err := m.Subscribe(id)
	if err != nil {
		return nil, err
	}
	defer stop()
	var last *Job
	for {
		select {
		case j, ok := <-ch:
			if !ok {
				if last == nil {
					// Subscription closed without a terminal snapshot: the
					// record was deleted out from under us.
					return nil, fmt.Errorf("jobs: job %s disappeared", id)
				}
				return last, nil
			}
			last = j
			if j.State.Terminal() {
				return j, nil
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

package dist

import "esd/internal/mir"

// The summary layer and the goal memo, read by this package's tests only.

// Through returns the cheapest entry-to-return instruction cost of fn
// (Infinite when fn cannot return or does not exist).
func (c *Calculator) Through(fn string) int64 {
	return c.steps.throughOf(fn)
}

// SyncThrough returns the smallest number of sync operations on any
// entry-to-return path of fn (Infinite when fn cannot return or does not
// exist).
func (c *Calculator) SyncThrough(fn string) int64 {
	return c.syncMetric().throughOf(fn)
}

func (m *metric) throughOf(fn string) int64 {
	if f, ok := m.c.index[fn]; ok {
		return m.through[f]
	}
	return Infinite
}

// DistToReturn returns the cheapest instruction cost from loc through a
// return of its function, the Ret included (Infinite when none is
// reachable).
func (c *Calculator) DistToReturn(loc mir.Loc) int64 {
	return metricDistToReturn(c.steps, loc)
}

// SyncDistToReturn returns the smallest number of sync operations from loc
// through a return of its function (Infinite when none is reachable).
func (c *Calculator) SyncDistToReturn(loc mir.Loc) int64 {
	return metricDistToReturn(c.syncMetric(), loc)
}

func metricDistToReturn(m *metric, loc mir.Loc) int64 {
	fi, ok := m.c.index[loc.Fn]
	if !ok {
		return Infinite
	}
	i, ok := m.c.fns[fi].flat(loc)
	if !ok {
		return Infinite
	}
	return m.retDist[fi][i]
}

// CachedGoals reports how many goals have memoized instruction-metric
// tables.
func (c *Calculator) CachedGoals() int {
	m := c.steps
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.goals)
}

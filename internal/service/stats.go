package service

// StateCounts breaks the manager's job records down by lifecycle state.
// Counts cover the records currently retained (RecordTTL evicts old
// terminal records, so Done/Failed/Canceled are windows, not lifetime
// totals).
type StateCounts struct {
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	Total    int `json:"total"`
}

// Add counts one job in the given state.
func (c *StateCounts) Add(state State) {
	switch state {
	case StateQueued:
		c.Queued++
	case StateRunning:
		c.Running++
	case StateDone:
		c.Done++
	case StateFailed:
		c.Failed++
	case StateCanceled:
		c.Canceled++
	}
	c.Total++
}

// BatchStats reports the cost-model scheduler's activity counters.
type BatchStats struct {
	// Enabled mirrors Config.Batch.Enabled.
	Enabled bool `json:"enabled"`
	// Cohorts and BatchedJobs always read 0: the scheduler runs one job
	// per pop and no longer forms multi-job cohorts. The fields stay only
	// because the end-to-end benchmark (e2ebench) still reads them.
	Cohorts     int `json:"cohorts"`
	BatchedJobs int `json:"batchedJobs"`
	// Overtakes counts job-over-job queue jumps by the cost model.
	Overtakes int `json:"overtakes"`
	// AgedPops counts dispatches forced by the aging bound rather than
	// chosen by cost — each one is a job the fairness guarantee rescued.
	AgedPops int `json:"agedPops"`
}

// Stats is a point-in-time operational snapshot of the service, exposed as
// GET /v1/stats.
type Stats struct {
	// Workers is the shared pool size.
	Workers int `json:"workers"`
	// QueueDepth is the number of jobs waiting to start.
	QueueDepth int `json:"queueDepth"`
	// InFlight is the number of jobs currently solving.
	InFlight int `json:"inFlight"`
	// Jobs breaks the retained records down by state.
	Jobs StateCounts `json:"jobs"`
	// Batch reports the scheduler's counters (zero-valued with Enabled
	// false when the FIFO drain is active).
	Batch BatchStats `json:"batch"`
}

// Stats snapshots the service's operational counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{Workers: m.pool.Workers(), QueueDepth: m.pending}
	for _, id := range m.order {
		s.Jobs.Add(m.jobs[id].state)
	}
	s.InFlight = s.Jobs.Running
	if m.queue != nil {
		qs := m.queue.Stats()
		s.Batch = BatchStats{Enabled: true, Overtakes: qs.Overtakes, AgedPops: qs.AgedPops}
	}
	return s
}

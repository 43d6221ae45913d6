package jobs

import (
	"sort"

	"svto/internal/dist"
	"svto/pkg/svto"
)

// JobStat is one running job's live counters inside a StatsView.
type JobStat struct {
	ID       string         `json:"id"`
	Status   Status         `json:"status"`
	Progress *svto.Progress `json:"progress,omitempty"`
}

// ClusterStats describes the attached coordinator, when the daemon runs in
// cluster mode.
type ClusterStats struct {
	Shards      []dist.ShardStatus     `json:"shards"`
	RunningJobs []string               `json:"running_jobs,omitempty"`
	Health      dist.CoordinatorHealth `json:"health"`
}

// StatsView is the daemon-wide operational snapshot served by GET
// /v1/stats: queue pressure, per-status job counts, every running job's
// live search counters (nodes, leaves, prunes, relaxation-bound
// probes/prunes), and — in cluster mode — shard health.
type StatsView struct {
	QueueDepth int            `json:"queue_depth"`
	Counts     map[Status]int `json:"counts"`
	Running    []JobStat      `json:"running"`
	Cluster    *ClusterStats  `json:"cluster,omitempty"`
}

// Stats collects the current operational snapshot.
func (m *Manager) Stats() StatsView {
	v := StatsView{Counts: make(map[Status]int)}
	m.mu.Lock()
	v.QueueDepth = len(m.queue)
	for _, j := range m.jobs {
		v.Counts[j.rec.Status]++
		if j.rec.Status == StatusRunning {
			v.Running = append(v.Running, JobStat{
				ID:       j.rec.ID,
				Status:   j.rec.Status,
				Progress: j.progress.load(),
			})
		}
	}
	m.mu.Unlock()
	sort.Slice(v.Running, func(i, k int) bool { return v.Running[i].ID < v.Running[k].ID })
	if m.cfg.Cluster != nil {
		v.Cluster = &ClusterStats{
			Shards:      m.cfg.Cluster.Shards(),
			RunningJobs: m.cfg.Cluster.RunningJobs(),
			Health:      m.cfg.Cluster.Health(),
		}
	}
	return v
}

package stream

import (
	"fmt"

	"gossipkit/internal/core"
	"gossipkit/internal/membership"
	"gossipkit/internal/obs"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// oracleRun is the single-kernel streaming body RunSharded replaced:
// RunSharded at shards=1 must match it byte for byte. It leases one
// kernel and network through core.NetArena.Lease and drives them to
// quiescence without the window machinery; its delivery matrices are
// its own, not the arena's.
//
// RNG layout: the publish schedule comes from r.Split(publishSplit) and
// the network stream from r.Split(netSplit) — splits never advance r —
// then the failure mask consumes r and the run continues on r.
func oracleRun(cfg Config, netCfg simnet.Config, r *xrand.RNG,
	inject func(*core.NetRun), arena *Arena, probe *obs.StreamProbe) (Result, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return Result{}, err
	}
	if arena == nil {
		arena = NewArena()
	}
	sh := arena.schedule(cfg, cfg.interval(netCfg), r)
	st := arena.net.Lease(cfg.N, netCfg, r.Split(netSplit))
	st.Kernel.SetBudget(budget(cfg, sh))
	sh.mask = st.Mask
	sh.mask.FillBernoulli(cfg.N, cfg.AliveRatio, 0, r)
	sh.view = cfg.View
	if sh.view == nil {
		sh.view = membership.NewFullView(cfg.N)
	}

	ws0, _ := arena.leaseWorkers(1)
	w := ws0[0]
	bits := &core.MessageBits{}
	bits.Reset(sh.M, cfg.N)
	var pend *core.MessageBits
	if cfg.Discipline == DisciplinePushPull {
		pend = &core.MessageBits{}
		pend.Reset(sh.M, cfg.N)
	}
	w.reset(0, 0, cfg.N, st.Net, r, sh, bits, pend, probe, arena.publishLists(sh, 1, cfg.N)[0])
	probe.Attach(st.Net, &w.occ, &w.act)
	st.Net.RegisterAll(func(now sim.Time, msg simnet.Message) { w.onMessage(now, msg) })
	st.Net.RegisterBatchAll(func(now sim.Time, from, to simnet.NodeID, kind int32, ids []int32) {
		w.onBatch(now, from, to, kind, ids)
	})
	for id := 0; id < cfg.N; id++ {
		if !sh.mask.Alive(id) {
			st.Net.Crash(simnet.NodeID(id))
		}
	}
	w.armPublishes(st.Kernel)
	w.installTick(st.Kernel)

	if inject != nil {
		ws := []*worker{w}
		inject(core.NewNetRunFuncs(st.Kernel, st.Net, sh.view, sh.mask,
			func(id int) bool { return hasReceivedLatest(sh, ws, cfg.N, id, st.Kernel.Now()) },
			func() int { return w.firstTotal },
			nil,
			func(id int) {
				if id < 0 || id >= cfg.N {
					return
				}
				w.scenarioPublish(id, latestPublished(sh, st.Kernel.Now()), st.Kernel.Now())
			}))
	}

	if err := st.Kernel.RunAll(); err != nil {
		return Result{}, fmt.Errorf("stream: execution aborted: %w", err)
	}
	probe.Finish(st.Kernel.Now())
	return reduce(cfg, sh, []*worker{w}, st.Net.Stats(), st.Kernel.Now()), nil
}

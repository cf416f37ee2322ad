package routing

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ebda/internal/cdg"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// TestDefaultPoolConcurrentShapes races goroutines through cdg.DefaultPool
// on interleaved network shapes, so pooled workspaces are rebound between
// shapes under contention: turn-set verifies via cdg.VerifyTurnSetCtx,
// routing verifies via VerifyJobs, and explicit checkouts that record
// which goroutine holds each workspace. Every report must equal the
// unpooled one, and no workspace may be handed to two holders at once.
// Run under -race (make check does).
func TestDefaultPoolConcurrentShapes(t *testing.T) {
	chain2 := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	chain3 := core.MustParseChain("PA[X1+ Y1* Z1+] -> PB[X1- Y2* Z1-]")
	type shape struct {
		net            *topology.Network
		vcs            cdg.VCConfig
		ts             *core.TurnSet
		alg            Algorithm
		wantTS, wantRt cdg.Report
	}
	mk := func(net *topology.Network, chain *core.Chain, alg Algorithm) shape {
		s := shape{net: net, ts: chain.AllTurns(), alg: alg}
		s.vcs = cdg.VCConfigFor(net.Dims(), chain.Channels())
		s.wantTS = cdg.NewWorkspace(net, s.vcs).VerifyTurnSetJobs(s.ts, 1)
		s.wantRt = cdg.NewWorkspace(net, s.vcs).VerifyRelationJobs(
			Relation(alg), net.String()+" / "+alg.Name(), 1)
		return s
	}
	shapes := []shape{
		mk(topology.NewMesh(6, 6), chain2, NewFromChain("ebda", chain2, 2)),
		mk(topology.NewTorus(5, 4), chain2, NewXY()),
		mk(topology.NewMesh(4, 3, 3), chain3, NewFromChain("ebda3", chain3, 3)),
		mk(topology.NewMesh(9, 7), chain2, NewWestFirst()),
		mk(topology.NewTorus(3, 3, 2), chain3, NewDOR("dor3", 0, 1, 2)),
	}
	// At least four goroutines, so hosts with few CPUs still interleave
	// more holders than the pool keeps idle.
	workers := max(4, runtime.GOMAXPROCS(0))
	var inUse sync.Map
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 18; i++ {
				s := shapes[(w+i)%len(shapes)]
				jobs := 1 + i%2
				var got, want cdg.Report
				switch i % 3 {
				case 0:
					rep, err := cdg.VerifyTurnSetCtx(context.Background(), s.net, s.vcs, s.ts, jobs)
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					got, want = rep, s.wantTS
				case 1:
					got, want = VerifyJobs(s.net, s.vcs, s.alg, jobs), s.wantRt
				default:
					ws := cdg.DefaultPool.Get(s.net, s.vcs)
					if holder, dup := inUse.LoadOrStore(ws, w); dup {
						t.Errorf("worker %d got a workspace worker %v still holds", w, holder)
					}
					got, want = ws.VerifyTurnSetJobs(s.ts, jobs), s.wantTS
					inUse.Delete(ws)
					cdg.DefaultPool.Put(ws)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("worker %d, %s: pooled %s, unpooled %s", w, s.net, got, want)
				}
			}
		}(w)
	}
	wg.Wait()
}

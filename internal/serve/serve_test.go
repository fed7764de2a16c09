package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"durassd/internal/sim"
	"durassd/internal/ssd"
)

const testLatency = 100 * time.Microsecond

// openTestStore builds one real-bytes store over a fresh DuraSSD on its own
// cluster domain.
func openTestStore(t *testing.T, keys []uint64, barrier bool) (*sim.Cluster, *Store) {
	t.Helper()
	cluster := sim.NewCluster(1, testLatency, 1)
	t.Cleanup(cluster.Close)
	dom := cluster.Domain(0)
	dev, err := ssd.New(dom.Engine(), ssd.DuraSSD(16))
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dom, dev, keys, StoreConfig{Barrier: barrier, RealBytes: true})
	if err != nil {
		t.Fatal(err)
	}
	return cluster, st
}

// TestStoreRoundtrip: PutVersion writes caller-assigned versions, reads see
// the latest acknowledged version, keys in the shard's key space exist from
// the start (at version 0, the preloaded image), and keys outside it are a
// definitive not-found — the contract the bloom filter's false positives
// lean on. A version at or below the durable one is acknowledged without
// device traffic and never regresses the key.
func TestStoreRoundtrip(t *testing.T) {
	cluster, st := openTestStore(t, []uint64{10, 20, 30}, false)
	st.Domain().Go("roundtrip", func(p *sim.Proc) {
		for ver := uint64(1); ver <= 3; ver++ {
			if err := st.PutVersion(p, 20, ver); err != nil {
				t.Errorf("PutVersion(20, %d): %v", ver, err)
				return
			}
		}
		if ver, found, err := st.Get(p, 20); err != nil || !found || ver != 3 {
			t.Errorf("Get(20) = (%d, %t, %v), want (3, true, nil)", ver, found, err)
		}
		puts, syncs := st.puts, st.syncs
		for _, stale := range []uint64{3, 2} {
			if err := st.PutVersion(p, 20, stale); err != nil {
				t.Errorf("PutVersion(20, %d) after 3: %v", stale, err)
			}
		}
		if p2, s2 := st.puts, st.syncs; p2 != puts || s2 != syncs {
			t.Errorf("stale PutVersion moved counters: puts %d -> %d, syncs %d -> %d", puts, p2, syncs, s2)
		}
		if ver, found, err := st.Get(p, 20); err != nil || !found || ver != 3 {
			t.Errorf("Get(20) after stale PutVersion = (%d, %t, %v), want (3, true, nil)", ver, found, err)
		}
		if ver, found, err := st.Get(p, 10); err != nil || !found || ver != 0 {
			t.Errorf("Get(10) never written = (%d, %t, %v), want (0, true, nil)", ver, found, err)
		}
		if _, found, err := st.Get(p, 999); err != nil || found {
			t.Errorf("Get(unknown) = (found=%t, err=%v), want (false, nil)", found, err)
		}
		if err := st.PutVersion(p, 999, 1); err == nil {
			t.Error("PutVersion(unknown) = nil, want an error")
		}
	})
	cluster.Run()
}

// TestStoreGroupCommit: concurrent writers share fsyncs — the leader's
// Fdatasync covers every write that landed before it started — and every
// acknowledged version is durable on the device afterwards. Barriers are ON
// here so the fsync costs a real device flush: that is the configuration
// where batching matters (with barriers off the fsync is a 3µs no-op and
// there is nothing to amortize).
func TestStoreGroupCommit(t *testing.T) {
	const writers, rounds = 8, 6
	keys := make([]uint64, writers)
	for i := range keys {
		keys[i] = uint64(100 + i)
	}
	cluster, st := openTestStore(t, keys, true)
	acked := make([]uint64, writers)
	for w := 0; w < writers; w++ {
		w := w
		st.Domain().Go(fmt.Sprintf("writer-%d", w), func(p *sim.Proc) {
			for ver := uint64(1); ver <= rounds; ver++ {
				if err := st.PutVersion(p, keys[w], ver); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				acked[w] = ver
			}
		})
	}
	cluster.Run()
	puts, syncs := st.puts, st.syncs
	if puts != writers*rounds {
		t.Fatalf("puts = %d, want %d", puts, writers*rounds)
	}
	if syncs >= puts {
		t.Errorf("group commit never batched: %d syncs for %d puts", syncs, puts)
	}
	if syncs == 0 {
		t.Error("no syncs at all: acks were returned without durability")
	}
	st.Domain().Go("audit", func(p *sim.Proc) {
		for w := 0; w < writers; w++ {
			got, ok, err := st.CrashRead(p, keys[w])
			if err != nil || !ok || got < acked[w] {
				t.Errorf("writer %d: durable version (%d, %t, %v), acked %d", w, got, ok, err, acked[w])
			}
		}
	})
	cluster.Run()
}

// buildTestServer assembles a 2-shard serving box in timing mode, each shard
// a replica group of one store, and returns the cluster and server.
func buildTestServer(t *testing.T, keys []uint64, cfg Config) (*sim.Cluster, *Server) {
	t.Helper()
	const shards = 2
	cluster := sim.NewCluster(shards+1, testLatency, 1)
	t.Cleanup(cluster.Close)
	front := cluster.Domain(0)
	ring := NewRing(shards)
	parts := PartitionKeys(ring, keys)
	groups := make([][]*Store, shards)
	for i := range groups {
		dom := cluster.Domain(i + 1)
		dev, err := ssd.New(dom.Engine(), ssd.DuraSSD(16))
		if err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(dom, dev, parts[i], StoreConfig{Barrier: false})
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = []*Store{st}
	}
	srv, err := NewReplicated(front, groups, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.BuildFilters(parts)
	return cluster, srv
}

// TestServerGatewayContract walks the full request paths: a negative lookup
// answered by the bloom filter without shard dispatch, a write acknowledged
// through the gateway, a read served by the shard, and the repeat read
// served by the host cache.
func TestServerGatewayContract(t *testing.T) {
	keys := []uint64{1, 2, 3, 4, 5}
	cluster, srv := buildTestServer(t, keys, Config{Concurrency: 8, QueueDepth: 16, CacheSize: 1024})
	acct := NewTenantAccount("t0", 1_000_000, 64)
	cluster.Domain(0).Go("contract", func(p *sim.Proc) {
		if _, err := srv.Get(p, acct, 404); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(absent) = %v, want ErrNotFound", err)
		}
		if acct.BloomSkip != 1 {
			t.Errorf("BloomSkip = %d, want 1: the filter should answer absent keys", acct.BloomSkip)
		}
		sh := srv.ring.Lookup(3)
		if gets0 := srv.groups[sh].reps[0].st.gets; gets0 != 0 {
			t.Fatalf("shard %d saw %d gets before any dispatch", sh, gets0)
		}
		ver, err := srv.Put(p, acct, 3)
		if err != nil || ver != 1 {
			t.Fatalf("Put = (%d, %v), want (1, nil)", ver, err)
		}
		if got, err := srv.Get(p, acct, 3); err != nil || got != ver {
			t.Fatalf("Get after Put = (%d, %v), want (%d, nil)", got, err, ver)
		}
		// The first read dispatched to the shard and admitted the value into
		// the host cache; the repeat read must be served from the cache.
		if gets := srv.groups[sh].reps[0].st.gets; gets != 1 {
			t.Errorf("shard gets = %d after first read, want 1", gets)
		}
		if got, err := srv.Get(p, acct, 3); err != nil || got != ver {
			t.Fatalf("repeat Get = (%d, %v), want (%d, nil)", got, err, ver)
		}
		if gets := srv.groups[sh].reps[0].st.gets; gets != 1 {
			t.Errorf("shard gets = %d after repeat read, want 1: should have hit the host cache", gets)
		}
		if acct.CacheHits == 0 {
			t.Error("cache hit not accounted to the tenant")
		}
		if acct.Ops == 0 || acct.Shed != 0 {
			t.Errorf("account ops=%d shed=%d, want ops>0 shed=0", acct.Ops, acct.Shed)
		}
	})
	cluster.Run()
}

// TestServerOverloadSheds: with per-shard admission squeezed to one slot and
// a one-deep queue, a stampede of writers must see typed ErrOverloaded, the
// per-shard shed counters must account for every rejection, and the box
// must still answer the surviving requests.
func TestServerOverloadSheds(t *testing.T) {
	keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	cluster, srv := buildTestServer(t, keys, Config{Concurrency: 1, QueueDepth: 1, CacheSize: 1024})
	acct := NewTenantAccount("stampede", 1_000_000, 1024)
	const clients, opsPer = 16, 10
	var served int64
	for c := 0; c < clients; c++ {
		c := c
		rng := sim.NewRand(int64(c) + 1)
		cluster.Domain(0).Go(fmt.Sprintf("client-%d", c), func(p *sim.Proc) {
			for i := 0; i < opsPer; i++ {
				_, err := srv.Put(p, acct, keys[rng.Intn(len(keys))])
				switch {
				case err == nil:
					served++
				case errors.Is(err, ErrOverloaded):
				default:
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		})
	}
	cluster.Run()
	var shed int64
	for i := range srv.groups {
		shed += srv.ShedCount(i)
	}
	if shed == 0 {
		t.Fatal("no request was shed under a 16-client stampede with 1-deep queues")
	}
	if acct.Shed != shed {
		t.Errorf("tenant shed %d != per-shard total %d", acct.Shed, shed)
	}
	if served == 0 {
		t.Fatal("overload shed everything: no request was served")
	}
	if served+shed != clients*opsPer {
		t.Errorf("served %d + shed %d != issued %d", served, shed, clients*opsPer)
	}
}

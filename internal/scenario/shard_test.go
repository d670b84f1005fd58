package scenario

import (
	"reflect"
	"testing"
)

func shardTestSpec() Spec {
	return Spec{
		Name: "sharded",
		Entries: []Entry{
			{Suite: "S1"},
			{Workload: "alpha"},
			{Workload: "zeta"},
			{Workload: "mid"},
		},
		Seed: 11, Scale: 1, Workers: 1, DatagenWorkers: 1, Parallel: 1,
	}
}

func taskKeys(tasks []Task) []string {
	keys := make([]string, len(tasks))
	for i, t := range tasks {
		keys[i] = t.Workload.Name()
	}
	return keys
}

// TestTasksShardPartition: for every shard count, the shards' task lists
// (what an agent keeps of the full resolution) interleave back into exactly
// that resolution — same workloads, same global order, nothing duplicated
// or dropped. This is the property that lets a coordinator reassemble
// per-shard results by index.
func TestTasksShardPartition(t *testing.T) {
	reg := testRegistry(t)
	spec := shardTestSpec()
	full, err := spec.Tasks(reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 4 {
		t.Fatalf("test spec resolves %d tasks; want several", len(full))
	}
	for count := 1; count <= len(full)+1; count++ {
		shards := make([][]Task, count)
		for index := 0; index < count; index++ {
			tasks, err := Shard(full, index, count)
			if err != nil {
				t.Fatalf("count=%d index=%d: %v", count, index, err)
			}
			if want := ShardIndices(len(full), index, count); len(tasks) != len(want) {
				t.Fatalf("count=%d index=%d: %d tasks, ShardIndices says %d", count, index, len(tasks), len(want))
			}
			shards[index] = tasks
		}
		rebuilt := make([]Task, 0, len(full))
		for i := 0; i < len(full); i++ {
			rebuilt = append(rebuilt, shards[i%count][i/count])
		}
		if got, want := taskKeys(rebuilt), taskKeys(full); !reflect.DeepEqual(got, want) {
			t.Fatalf("count=%d: shards interleave to %v, want %v", count, got, want)
		}
		// Entry provenance survives sharding (suite attribution, per-entry
		// overrides) — the shard filter runs after full resolution.
		for i, task := range rebuilt {
			if task.Entry != full[i].Entry || task.Suite != full[i].Suite {
				t.Fatalf("count=%d task %d: entry/suite %d/%q, want %d/%q",
					count, i, task.Entry, task.Suite, full[i].Entry, full[i].Suite)
			}
		}
	}
}

// TestTasksShardValidation: placement arrives from the wire, so Shard
// checks it — a count below one or an index outside [0, count) is an error,
// never a silently empty or whole slice.
func TestTasksShardValidation(t *testing.T) {
	full, err := shardTestSpec().Tasks(testRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name         string
		index, count int
	}{
		{"index-at-count", 2, 2},
		{"index-above-count", 5, 2},
		{"negative-index", -1, 2},
		{"negative-count", 0, -1},
		{"index-without-count", 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Shard(full, tc.index, tc.count); err == nil {
				t.Fatalf("shard %d/%d accepted", tc.index, tc.count)
			}
		})
	}
}

func TestShardIndicesPartition(t *testing.T) {
	for total := 0; total <= 7; total++ {
		for count := 1; count <= total+1; count++ {
			seen := make([]int, total)
			for index := 0; index < count; index++ {
				prev := -1
				for _, gi := range ShardIndices(total, index, count) {
					if gi < 0 || gi >= total {
						t.Fatalf("total=%d shard %d/%d: index %d out of range", total, index, count, gi)
					}
					if gi <= prev {
						t.Fatalf("total=%d shard %d/%d: indices not increasing", total, index, count)
					}
					prev = gi
					seen[gi]++
				}
			}
			for gi, n := range seen {
				if n != 1 {
					t.Fatalf("total=%d count=%d: index %d owned %d times", total, count, gi, n)
				}
			}
		}
	}
}

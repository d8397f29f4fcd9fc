package store

import (
	"repro/internal/shard"
	"repro/internal/workload"
)

// Identity returns the cache identity of a workload Spec: the composite
// key "kind|workloadDigest|optionsDigest" and its digest — the content
// address under which the derived curve lives in this store, in the
// server's memory LRU, and in its spool directory. One identity rule
// shared by the server and the CLIs is what lets a batch job warm the
// cache a server later reads.
//
// The digests are Spec.CacheDigests: the shard-job digests for every kind
// except segmentation, whose cache identity hashes only the chain because
// its per-op input curves are derived after the identity must already
// exist. Pinned by the cross-layer identity test in internal/serve.
func Identity(spec *workload.Spec) (key, digest string, err error) {
	wd, od, err := spec.CacheDigests()
	if err != nil {
		return "", "", err
	}
	key = string(spec.Kind) + "|" + wd + "|" + od
	return key, shard.Digest(key), nil
}

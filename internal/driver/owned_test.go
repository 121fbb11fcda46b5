package driver

import (
	"testing"

	"fastcoalesce/internal/cache"
	"fastcoalesce/internal/lang"
)

// TestOwnedJobCompiledInPlace checks that a function the pool made
// itself is compiled in place on a miss, while a caller's prebuilt
// function is cloned and left untouched.
func TestOwnedJobCompiledInPlace(t *testing.T) {
	src := "func f(n int) int { var s int = 0\n for var i = 0; i < n; i = i + 1 { s = s + i }\n return s }"
	pool := NewShardPool(ShardConfig{Config: Config{Algo: New, Cache: cache.New(cache.Config{})}, Shards: 1})
	defer pool.Close()

	own, err := lang.CompileOne(src)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := pool.submit(Job{Name: "own", Func: own, owned: true})
	if err != nil || res.Err != nil {
		t.Fatalf("owned job: %v / %v", err, res.Err)
	}
	if res.Func != own {
		t.Error("an owned function was cloned on a miss")
	}

	theirs, err := lang.CompileOne("func g(n int) int { while n > 9 { n = n - 9 }\n return n }")
	if err != nil {
		t.Fatal(err)
	}
	before := theirs.String()
	res, err = pool.Submit(Job{Name: "theirs", Func: theirs})
	if err != nil || res.Err != nil {
		t.Fatalf("caller's job: %v / %v", err, res.Err)
	}
	if res.Func == theirs || theirs.String() != before {
		t.Error("Submit compiled the caller's function instead of a clone")
	}
}

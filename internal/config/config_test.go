package config

import (
	"sync"
	"testing"
)

func TestDefaults(t *testing.T) {
	c := New()
	if c.Bool(KeyRDMAEnabled) {
		t.Fatal("RDMA enabled by default; paper's hybrid defaults to vanilla")
	}
	if !c.Bool(KeyCachingEnabled) {
		t.Fatal("caching should default on")
	}
	if c.Int(KeyMapSlots) != 4 || c.Int(KeyReduceSlots) != 4 {
		t.Fatal("paper's tuned slot counts are 4/4")
	}
	if c.Int(KeyHTTPPacketBytes) != 65536 {
		t.Fatal("default HTTP packet must be 64KB per paper §III-B.2")
	}
}

func TestZeroValueConfigServesDefaults(t *testing.T) {
	var c Config
	if c.Int(KeyBlockSize) != 256<<20 {
		t.Fatalf("zero-value config broken: %d", c.Int(KeyBlockSize))
	}
}

func TestNilConfigServesDefaults(t *testing.T) {
	var c *Config
	if c.Get(KeyRDMAEnabled) != "false" {
		t.Fatal("nil config should serve defaults")
	}
}

func TestSetAndTypedGet(t *testing.T) {
	c := New()
	c.SetBool(KeyRDMAEnabled, true)
	c.SetInt(KeyKVPairsPerPacket, 512)
	c.Set("custom.key", "hello")
	if !c.Bool(KeyRDMAEnabled) || c.Int(KeyKVPairsPerPacket) != 512 || c.Get("custom.key") != "hello" {
		t.Fatal("set/get mismatch")
	}
}

func TestMalformedFallsBackToDefault(t *testing.T) {
	c := New()
	c.Set(KeyMapSlots, "not a number")
	if c.Int(KeyMapSlots) != 4 {
		t.Fatalf("malformed int did not fall back: %d", c.Int(KeyMapSlots))
	}
	c.Set(KeyRDMAEnabled, "maybe")
	if c.Bool(KeyRDMAEnabled) {
		t.Fatal("malformed bool did not fall back")
	}
}

func TestUnknownKeyZeroValues(t *testing.T) {
	c := New()
	if c.Int("no.such.key") != 0 || c.Bool("no.such.key") || c.Get("no.such.key") != "" {
		t.Fatal("unknown keys must yield zero values")
	}
}

func TestClone(t *testing.T) {
	c := New()
	c.Set("a", "1")
	d := c.Clone()
	d.Set("a", "2")
	if c.Get("a") != "1" || d.Get("a") != "2" {
		t.Fatal("clone not independent")
	}
}

func TestKeysSorted(t *testing.T) {
	c := New()
	c.Set("zz", "1")
	c.Set("aa", "2")
	keys := c.Keys()
	if len(keys) != 2 || keys[0] != "aa" || keys[1] != "zz" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestValidate(t *testing.T) {
	c := New()
	if err := c.Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
	c.SetInt(KeyIOSortFactor, 1)
	if err := c.Validate(); err == nil {
		t.Fatal("io.sort.factor=1 accepted")
	}
	c = New()
	c.Set(KeyCachePriorityMode, "random")
	if err := c.Validate(); err == nil {
		t.Fatal("bad cache policy accepted")
	}
}

func TestValidateOutstandingPerConn(t *testing.T) {
	c := New()
	if c.Int(KeyRDMAOutstandingPerConn) != 0 {
		t.Fatal("outstanding.per.conn must default to 0 (follow parallel.copies)")
	}
	for _, ok := range []int64{0, 1, 8, 4096} {
		c.SetInt(KeyRDMAOutstandingPerConn, ok)
		if err := c.Validate(); err != nil {
			t.Fatalf("depth %d rejected: %v", ok, err)
		}
	}
	for _, bad := range []int64{-1, 4097} {
		c.SetInt(KeyRDMAOutstandingPerConn, bad)
		if err := c.Validate(); err == nil {
			t.Fatalf("depth %d accepted", bad)
		}
	}
}

func TestDefaultFor(t *testing.T) {
	if v, ok := DefaultFor(KeyIOSortFactor); !ok || v != "10" {
		t.Fatalf("DefaultFor(io.sort.factor) = %q,%v", v, ok)
	}
	if _, ok := DefaultFor("nope"); ok {
		t.Fatal("unknown default reported present")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.SetInt(KeyKVPairsPerPacket, int64(j))
				_ = c.Int(KeyKVPairsPerPacket)
				_ = c.Keys()
			}
		}(i)
	}
	wg.Wait()
}

func TestRobustnessKeyDefaults(t *testing.T) {
	c := New()
	if c.Int(KeyRDMAConnectRetries) != 4 {
		t.Fatalf("connect.retries default = %d, want 4", c.Int(KeyRDMAConnectRetries))
	}
	if c.Int(KeyRDMABackoffBase) != 2 || c.Int(KeyRDMABackoffMax) != 200 {
		t.Fatalf("backoff defaults = %d/%d, want 2/200 ms",
			c.Int(KeyRDMABackoffBase), c.Int(KeyRDMABackoffMax))
	}
	if c.Int(KeyRDMARequestTimeout) != 30000 {
		t.Fatalf("request.timeout default = %d, want 30000 ms", c.Int(KeyRDMARequestTimeout))
	}
}

func TestValidateRobustnessKeys(t *testing.T) {
	cases := []struct {
		key string
		ok  []int64
		bad []int64
	}{
		{KeyRDMAConnectRetries, []int64{0, 4, 1000}, []int64{-1, 1001}},
		{KeyRDMABackoffBase, []int64{0, 2, 200}, []int64{-1, 201}}, // base > max(200) invalid
		{KeyRDMARequestTimeout, []int64{0, 30000, 600000}, []int64{-1, 600001}},
		{KeyTrackerExpiry, []int64{1, 10000, 3600000}, []int64{0, -5, 3600001}},
		{KeyMapMaxAttempts, []int64{1, 4, 100}, []int64{0, -1, 101}},
		{KeyReduceMaxAttempts, []int64{1, 4, 100}, []int64{0, 101}},
	}
	for _, tc := range cases {
		for _, v := range tc.ok {
			c := New()
			c.SetInt(tc.key, v)
			if err := c.Validate(); err != nil {
				t.Fatalf("%s=%d rejected: %v", tc.key, v, err)
			}
		}
		for _, v := range tc.bad {
			c := New()
			c.SetInt(tc.key, v)
			if err := c.Validate(); err == nil {
				t.Fatalf("%s=%d accepted", tc.key, v)
			}
		}
	}
	// max below base is inconsistent regardless of individual ranges.
	c := New()
	c.SetInt(KeyRDMABackoffBase, 50)
	c.SetInt(KeyRDMABackoffMax, 10)
	if err := c.Validate(); err == nil {
		t.Fatal("backoff.max < backoff.base accepted")
	}
}

func TestValidateReadLeaseTimeout(t *testing.T) {
	c := New()
	c.SetInt(KeyRDMAReadLeaseTimeout, 0)
	if err := c.Validate(); err == nil {
		t.Fatal("zero lease timeout accepted")
	}
	c.SetInt(KeyRDMAReadLeaseTimeout, 50)
	if err := c.Validate(); err != nil {
		t.Fatalf("sane lease timeout rejected: %v", err)
	}
}

func TestSnapshotCoversDefaultsAndOverrides(t *testing.T) {
	c := New()
	c.Set(KeyCachePriorityMode, "fifo")
	c.Set("x.custom.key", "7")
	snap := c.Snapshot()
	if snap[KeyCachePriorityMode] != "fifo" {
		t.Fatalf("snapshot missed override: %q", snap[KeyCachePriorityMode])
	}
	if snap[KeyRDMAPacketBytes] != "131072" {
		t.Fatalf("snapshot missed default: %q", snap[KeyRDMAPacketBytes])
	}
	if snap["x.custom.key"] != "7" {
		t.Fatal("snapshot missed unknown explicit key")
	}
	var nilConf *Config
	if nilSnap := nilConf.Snapshot(); nilSnap[KeyCachingEnabled] != "true" {
		t.Fatal("nil snapshot missing defaults")
	}
}

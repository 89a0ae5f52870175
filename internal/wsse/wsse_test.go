package wsse

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xmldom"
)

var secret = []byte("shared-secret")

func newSigner() *Signer {
	return &Signer{Username: "alice", Secret: secret}
}

func newVerifier() *Verifier {
	return &Verifier{Secrets: map[string][]byte{"alice": secret}}
}

// signAndReparse builds headers for a body and round-trips them through
// serialization, as the envelope codec would.
func signAndReparse(t *testing.T, s *Signer, body []byte) *xmldom.Element {
	t.Helper()
	blocks, err := s.MakeHeaders(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 {
		t.Fatalf("got %d header blocks", len(blocks))
	}
	reparsed, err := xmldom.ParseString(blocks[0].String())
	if err != nil {
		t.Fatal(err)
	}
	return reparsed
}

func TestSignVerifyRoundTrip(t *testing.T) {
	body := []byte(`<Echo xmlns="urn:spi:Echo"><m>x</m></Echo>`)
	block := signAndReparse(t, newSigner(), body)
	if err := newVerifier().ProcessHeader(block, body); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestTamperedBodyRejected(t *testing.T) {
	body := []byte(`<Echo><m>x</m></Echo>`)
	block := signAndReparse(t, newSigner(), body)
	err := newVerifier().ProcessHeader(block, []byte(`<Echo><m>TAMPERED</m></Echo>`))
	if err == nil || !strings.Contains(err.Error(), "signature mismatch") {
		t.Errorf("err = %v", err)
	}
}

func TestUnknownUserRejected(t *testing.T) {
	block := signAndReparse(t, &Signer{Username: "mallory", Secret: secret}, []byte("b"))
	if err := newVerifier().ProcessHeader(block, []byte("b")); err == nil {
		t.Error("unknown user accepted")
	}
}

func TestWrongSecretRejected(t *testing.T) {
	block := signAndReparse(t, &Signer{Username: "alice", Secret: []byte("wrong")}, []byte("b"))
	err := newVerifier().ProcessHeader(block, []byte("b"))
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("err = %v", err)
	}
}

func TestExpiredTokenRejected(t *testing.T) {
	old := time.Now().Add(-time.Hour)
	s := newSigner()
	s.Now = func() time.Time { return old }
	block := signAndReparse(t, s, []byte("b"))
	err := newVerifier().ProcessHeader(block, []byte("b"))
	if err == nil || !strings.Contains(err.Error(), "expired") {
		t.Errorf("err = %v", err)
	}
}

func TestReplayRejected(t *testing.T) {
	body := []byte("b")
	block := signAndReparse(t, newSigner(), body)
	v := newVerifier()
	if err := v.ProcessHeader(block, body); err != nil {
		t.Fatal(err)
	}
	err := v.ProcessHeader(block, body)
	if err == nil || !strings.Contains(err.Error(), "replay") {
		t.Errorf("err = %v", err)
	}
}

func TestNoncesDiffer(t *testing.T) {
	s := newSigner()
	b1, _ := s.MakeHeaders([]byte("b"))
	b2, _ := s.MakeHeaders([]byte("b"))
	n1 := b1[0].Child(NS, "UsernameToken").Child(NS, "Nonce").Text()
	n2 := b2[0].Child(NS, "UsernameToken").Child(NS, "Nonce").Text()
	if n1 == n2 {
		t.Error("two headers share a nonce")
	}
}

func TestMustUnderstandFlag(t *testing.T) {
	s := newSigner()
	s.MustUnderstand = true
	blocks, err := s.MakeHeaders([]byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(blocks[0].String(), `mustUnderstand="1"`) {
		t.Errorf("header = %s", blocks[0])
	}
}

func TestIncompleteHeaderRejected(t *testing.T) {
	cases := []string{
		`<wsse:Security xmlns:wsse="` + NS + `"/>`,
		`<wsse:Security xmlns:wsse="` + NS + `"><wsse:UsernameToken><wsse:Username>alice</wsse:Username></wsse:UsernameToken></wsse:Security>`,
	}
	v := newVerifier()
	for _, src := range cases {
		el, err := xmldom.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.ProcessHeader(el, []byte("b")); err == nil {
			t.Errorf("incomplete header accepted: %s", src)
		}
	}
}

func TestSignerValidation(t *testing.T) {
	s := &Signer{}
	if _, err := s.MakeHeaders([]byte("b")); err == nil {
		t.Error("empty signer accepted")
	}
}

func TestHeaderNameContract(t *testing.T) {
	ns, local := newVerifier().HeaderName()
	if ns != NS || local != ElemSecurity {
		t.Errorf("HeaderName = %q %q", ns, local)
	}
}

func TestHeaderSizeIsSubstantial(t *testing.T) {
	// The experiment's premise: the security header adds a few hundred
	// bytes of per-message overhead.
	blocks, err := newSigner().MakeHeaders([]byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	size := len(blocks[0].String())
	if size < 300 {
		t.Errorf("security header only %d bytes; experiment premise needs a substantial header", size)
	}
}

// testClock is an injectable clock the test moves by hand.
type testClock struct{ t time.Time }

func (c *testClock) now() time.Time { return c.t }

// skewedSigner signs as if its clock ran skew ahead of c.
func skewedSigner(c *testClock, skew time.Duration) *Signer {
	s := newSigner()
	s.Now = func() time.Time { return c.t.Add(skew) }
	return s
}

func newSignerAt(c *testClock) *Signer { return skewedSigner(c, 0) }

func clockedVerifier(c *testClock, maxAge time.Duration) *Verifier {
	v := newVerifier()
	v.MaxAge = maxAge
	v.Now = c.now
	return v
}

// TestReplayRejectedUntilTokenExpiry replays one token at offsets from
// its first use up to its own expiry, Created+MaxAge. Freshness accepts
// Created up to MaxAge either side of the server clock, so a token whose
// Created runs ahead stays acceptable for longer than MaxAge after first
// use: its nonce must be remembered for all of that time.
func TestReplayRejectedUntilTokenExpiry(t *testing.T) {
	const maxAge = 100 * time.Second
	t0 := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, skew := range []float64{-0.9, 0, 0.9} {
		for _, off := range []float64{0, 0.05, 0.5, 1.0, 1.05, 1.5, 1.9} {
			// age == MaxAge exactly at off == skew+1: still fresh, so the
			// nonce must still be refused.
			if off > skew+1 {
				continue
			}
			t.Run(fmt.Sprintf("skew%+.2f/replay%.2f", skew, off), func(t *testing.T) {
				c := &testClock{t: t0}
				v := clockedVerifier(c, maxAge)
				block := signAndReparse(t, skewedSigner(c, time.Duration(skew*float64(maxAge))), []byte("b"))
				if err := v.ProcessHeader(block, []byte("b")); err != nil {
					t.Fatalf("first use: %v", err)
				}
				c.t = t0.Add(time.Duration(off * float64(maxAge)))
				err := v.ProcessHeader(block, []byte("b"))
				if err == nil || !strings.Contains(err.Error(), "replayed nonce") {
					t.Errorf("replay at first use + %.2f×MaxAge: err = %v, want replayed nonce", off, err)
				}
			})
		}
	}
}

// TestReplaySetMemoryBounded drives a verifier with a steady stream of
// skewed tokens on a stepped clock and checks what it keeps.
func TestReplaySetMemoryBounded(t *testing.T) {
	const maxAge = 100 * time.Second
	width := maxAge / bucketsPerMaxAge
	t0 := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	c := &testClock{t: t0}
	v := clockedVerifier(c, maxAge)

	var expiries []time.Time
	skews := []time.Duration{-maxAge * 9 / 10, 0, maxAge * 9 / 10}
	for i := 0; i < 600; i++ {
		c.t = t0.Add(time.Duration(i) * time.Second)
		skew := skews[i%len(skews)]
		block := signAndReparse(t, skewedSigner(c, skew), []byte("b"))
		if err := v.ProcessHeader(block, []byte("b")); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		expiries = append(expiries, c.t.Add(skew+maxAge))
		// Every nonce held belongs to a bucket that has not ended, so its
		// token expired less than one bucket width ago at most.
		bound := 0
		for _, exp := range expiries {
			if exp.After(c.t.Add(-width)) {
				bound++
			}
		}
		if n := v.remembered(); n > bound {
			t.Fatalf("step %d: %d nonces remembered, want <= %d (still valid plus one bucket)", i, n, bound)
		}
	}

	// Stepping the clock backwards forgets nothing.
	before := v.remembered()
	c.t = c.t.Add(-maxAge / 2)
	block := signAndReparse(t, newSignerAt(c), []byte("b"))
	if err := v.ProcessHeader(block, []byte("b")); err != nil {
		t.Fatalf("after backward step: %v", err)
	}
	if n := v.remembered(); n != before+1 {
		t.Fatalf("after backward step: %d nonces remembered, want %d", n, before+1)
	}

	// Past every token's expiry plus one bucket width, everything is
	// forgotten: the message that triggers the sweep is all that is left.
	last := expiries[0]
	for _, exp := range expiries {
		if exp.After(last) {
			last = exp
		}
	}
	c.t = last.Add(width + time.Second)
	block = signAndReparse(t, newSignerAt(c), []byte("b"))
	if err := v.ProcessHeader(block, []byte("b")); err != nil {
		t.Fatalf("after expiry: %v", err)
	}
	if n := v.remembered(); n != 1 {
		t.Fatalf("after every token expired: %d nonces remembered, want only the new one", n)
	}
}

// TestReplayAfterForgetAndClockStepBack forgets a bucket, steps the clock
// back into the forgotten token's window, and replays it.
func TestReplayAfterForgetAndClockStepBack(t *testing.T) {
	const maxAge = 100 * time.Second
	t0 := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	c := &testClock{t: t0}
	v := clockedVerifier(c, maxAge)
	old := signAndReparse(t, newSignerAt(c), []byte("b"))
	if err := v.ProcessHeader(old, []byte("b")); err != nil {
		t.Fatal(err)
	}
	c.t = t0.Add(2 * maxAge)
	if err := v.ProcessHeader(signAndReparse(t, newSignerAt(c), []byte("b")), []byte("b")); err != nil {
		t.Fatal(err)
	}
	c.t = t0.Add(maxAge / 2)
	if err := v.ProcessHeader(old, []byte("b")); err == nil {
		t.Fatal("forgotten nonce accepted after the clock stepped back")
	}
}

// TestReplaySetBucketEdges replays a key at the exact nanosecond its
// token expires, for expiries on and either side of bucket boundaries.
func TestReplaySetBucketEdges(t *testing.T) {
	const width = 100
	for _, exp := range []int64{1000, 1001, 1099, 1100, 1101, 1199} {
		var r replaySet
		key := sha256.Sum256([]byte(fmt.Sprint(exp)))
		if err := r.admit(key, exp, exp-3*width, width); err != nil {
			t.Fatalf("exp %d: first use: %v", exp, err)
		}
		err := r.admit(key, exp, exp, width)
		if err == nil || !strings.Contains(err.Error(), "replayed nonce") {
			t.Errorf("exp %d: replay at expiry: err = %v, want replayed nonce", exp, err)
		}
	}
}

// TestConcurrentReplayExecutesOnce presents one signed block from eight
// goroutines at once: exactly one may be accepted.
func TestConcurrentReplayExecutesOnce(t *testing.T) {
	v := newVerifier()
	block := signAndReparse(t, newSigner(), []byte("b"))
	const callers = 8
	var accepted, replayed atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			err := v.ProcessHeader(block, []byte("b"))
			switch {
			case err == nil:
				accepted.Add(1)
			case strings.Contains(err.Error(), "replayed nonce"):
				replayed.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if accepted.Load() != 1 || replayed.Load() != callers-1 {
		t.Errorf("accepted %d, replayed %d; want 1 and %d", accepted.Load(), replayed.Load(), callers-1)
	}
}

// BenchmarkVerify verifies fresh tokens against a verifier already
// holding n nonces. The cost per message must not grow with n.
func BenchmarkVerify(b *testing.B) {
	body := []byte(`<Echo xmlns="urn:spi:Echo"><m>x</m></Echo>`)
	for _, n := range []int{0, 10_000, 100_000} {
		b.Run(fmt.Sprintf("remembered=%d", n), func(b *testing.B) {
			v := newVerifier()
			now := time.Now()
			width := int64(5 * time.Minute / bucketsPerMaxAge)
			for i := 0; i < n; i++ {
				var nonce [16]byte
				rand.Read(nonce[:])
				exp := now.Add(time.Duration(i%600) * time.Second).UnixNano()
				if err := v.replay.admit(sha256.Sum256(nonce[:]), exp, now.UnixNano(), width); err != nil {
					b.Fatal(err)
				}
			}
			s := newSigner()
			b.ReportAllocs()
			b.ResetTimer()
			// Sign in chunks off the clock; each block verifies only once.
			const chunk = 1024
			for done := 0; done < b.N; done += chunk {
				b.StopTimer()
				blocks := make([]*xmldom.Element, min(chunk, b.N-done))
				for i := range blocks {
					hdr, err := s.MakeHeaders(body)
					if err != nil {
						b.Fatal(err)
					}
					blocks[i] = hdr[0]
				}
				b.StartTimer()
				for _, block := range blocks {
					if err := v.ProcessHeader(block, body); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

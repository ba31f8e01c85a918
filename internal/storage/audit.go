package storage

import (
	"fmt"
	"sync"

	"repro/internal/datum"
)

// immutabilityAudit fingerprints committed versions so a test can
// prove no reader wrote into a shared record (see AuditImmutable).
type immutabilityAudit struct {
	mu    sync.Mutex
	print map[*mvVersion]string
}

func fingerprint(r Record) string {
	return fmt.Sprintf("%d/%s/%t/%x", r.OID, r.Class, r.Deleted, datum.EncodeMap(nil, r.Attrs))
}

// noteInstall fingerprints a just-installed version when the audit is
// armed.
func (s *Store) noteInstall(v *mvVersion) {
	if a := s.audit.Load(); a != nil {
		a.note(v)
	}
}

func (a *immutabilityAudit) note(v *mvVersion) {
	fp := fingerprint(v.rec)
	a.mu.Lock()
	a.print[v] = fp
	a.mu.Unlock()
}

// AuditImmutable arms the committed-version immutability check for
// tests. Reads hand out the stored records themselves, so a caller
// that writes into a returned attribute map would corrupt the heap
// for every other reader. From this call on, every committed version
// — those already in the heap and every one installed later — is
// fingerprinted; the returned verify re-fingerprints them all,
// including versions the GC has since unlinked, and reports the first
// that changed. Arming costs a map entry per installed version, so
// production code never calls it.
func (s *Store) AuditImmutable() (verify func() error) {
	a := &immutabilityAudit{print: map[*mvVersion]string{}}
	// Arm before walking: an install racing the walk is noted by one
	// or both, never by neither.
	s.audit.Store(a)
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.objects.Range(func(_, v any) bool {
			for mv := v.(*mvEntry).head.Load(); mv != nil; mv = mv.prev.Load() {
				a.note(mv)
			}
			return true
		})
		sh.mu.Unlock()
	}
	return func() error {
		a.mu.Lock()
		defer a.mu.Unlock()
		for v, fp := range a.print {
			if got := fingerprint(v.rec); got != fp {
				return fmt.Errorf("storage: committed version of %v at lsn %d was written after install:\n  installed %s\n  now       %s",
					v.rec.OID, v.lsn, fp, got)
			}
		}
		return nil
	}
}

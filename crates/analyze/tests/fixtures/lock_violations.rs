// Fixture: lock-discipline violations and exemptions. Never compiled.
// The fixture config ranks outer=10 < inner=20 and takes its module
// boundaries from analyze.toml: no continuation runs under a guard.
impl Fixture {
    fn descending(&self) {
        let b = self.inner.lock();
        let a = self.outer.lock();
    }

    fn ascending(&self) {
        let a = self.outer.lock();
        let b = self.inner.lock();
    }

    fn scoped_then_reversed(&self) {
        {
            let b = self.inner.lock();
            b.touch();
        }
        let a = self.outer.lock();
    }

    fn dropped_then_reversed(&self) {
        let b = self.inner.lock();
        drop(b);
        let a = self.outer.lock();
    }

    fn continuation_under_guard(&self, continuation: Continuation) {
        let a = self.outer.lock();
        continuation(outcome);
    }

    fn continuation_lock_free(&self, continuation: Continuation) {
        {
            let a = self.outer.lock();
            a.touch();
        }
        continuation(outcome);
    }

    fn unknown_receiver(&self) {
        let g = self.mystery.lock();
    }

    fn temporary_dies_at_statement(&self) -> usize {
        let n = self.inner.lock().len();
        let a = self.outer.lock();
        n
    }
}

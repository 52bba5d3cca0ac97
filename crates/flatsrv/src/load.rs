//! The wire key naming shared by every RESP client of `flatsrv`.

/// Raw key bytes for an engine key: stable, human-greppable.
pub fn raw_key(key: u64) -> Vec<u8> {
    format!("key:{key:016x}").into_bytes()
}

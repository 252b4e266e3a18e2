//! Property tests for the content-addressed cache keys.
//!
//! Two invariants carry the whole cache design:
//!
//! 1. **Order-insensitivity** — the key hashes the *canonical* form of
//!    the configuration document, so shuffling JSON member order (at any
//!    nesting depth) never changes the key. A future refactor that emits
//!    config fields in a different order must not invalidate every
//!    cached result.
//! 2. **Field-sensitivity** — changing any single `SimConfig` field, or
//!    the workload, scale, or instruction window, must produce a
//!    different key. Two distinct machines must never share a cache
//!    entry.

use cpe_core::{config_json, parse_json, BackendKind, JsonValue, SimConfig};
use cpe_exec::render::render;
use cpe_exec::{CacheKey, Job};
use cpe_workloads::{Scale, Workload};
use proptest::prelude::*;

/// Deterministically permute object member order at every nesting level,
/// steered by `seed` — rotation plus a conditional swap gives coverage of
/// orderings without needing a full shuffle.
fn permute(value: &JsonValue, seed: u64) -> JsonValue {
    match value {
        JsonValue::Object(members) => {
            let mut members: Vec<(String, JsonValue)> = members
                .iter()
                .map(|(key, member)| (key.clone(), permute(member, seed.rotate_left(9) ^ 0x9e37)))
                .collect();
            if !members.is_empty() {
                let rotation = (seed as usize) % members.len();
                members.rotate_left(rotation);
                if members.len() >= 2 && seed & 1 == 1 {
                    members.swap(0, 1);
                }
            }
            JsonValue::Object(members)
        }
        JsonValue::Array(items) => JsonValue::Array(
            items
                .iter()
                .map(|item| permute(item, seed.wrapping_mul(0x100000001b3)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// A config with several fields driven off the inputs, so the corpus is
/// wider than the six presets.
fn build_config(ports: u32, width: u64, sb_entries: usize, combining: bool) -> SimConfig {
    let mut config = SimConfig::single_port().named("prop");
    config.mem.ports.count = ports;
    config.mem.ports.width_bytes = width;
    config.mem.store_buffer.entries = sb_entries;
    config.mem.store_buffer.combining = combining;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn keys_are_stable_under_member_reordering(
        seed in any::<u64>(),
        ports in 1u32..9,
        width in prop::sample::select(vec![8u64, 16, 32]),
        sb_entries in 0usize..17,
        combining in any::<bool>(),
    ) {
        let config = build_config(ports, width, sb_entries, combining);
        let text = config_json(&config);
        let shuffled = render(&permute(&parse_json(&text).unwrap(), seed));
        let original =
            CacheKey::for_config_text(&text, "sort", Scale::Test, Some(20_000)).unwrap();
        let reordered =
            CacheKey::for_config_text(&shuffled, "sort", Scale::Test, Some(20_000)).unwrap();
        prop_assert_eq!(original, reordered, "shuffled: {}", shuffled);
    }

    #[test]
    fn any_single_field_change_changes_the_key(
        mutation in 0usize..9,
        ports in 1u32..5,
        width in prop::sample::select(vec![8u64, 16]),
        sb_entries in 0usize..9,
    ) {
        let base = build_config(ports, width, sb_entries, false);
        let mut changed = base.clone();
        match mutation {
            0 => changed = changed.named("prop-renamed"),
            1 => changed.mem.ports.count = ports + 1,
            2 => changed.mem.ports.width_bytes = width * 2,
            3 => changed.mem.ports.load_combining = true,
            4 => changed.mem.store_buffer.entries = sb_entries + 1,
            5 => changed.mem.store_buffer.combining = true,
            6 => changed.mem.line_buffers.entries += 1,
            7 => changed.cpu.issue_width += 1,
            _ => changed.cpu.rob_entries += 16,
        }
        let job = |config: SimConfig| Job {
            config,
            workload: Workload::Sort,
            scale: Scale::Test,
            max_insts: Some(20_000),
            backend: BackendKind::Direct,
        };
        prop_assert_ne!(
            job(base).cache_key(),
            job(changed.clone()).cache_key(),
            "mutation {} produced a colliding key: {}",
            mutation,
            config_json(&changed)
        );
    }

    #[test]
    fn workload_scale_and_window_are_part_of_the_key(
        max_a in 1_000u64..50_000,
        max_b in 50_001u64..100_000,
    ) {
        let job = |workload, scale, max_insts| Job {
            config: SimConfig::combined_single_port(),
            workload,
            scale,
            max_insts,
            backend: BackendKind::Direct,
        };
        let base = job(Workload::Sort, Scale::Test, Some(max_a)).cache_key();
        prop_assert_ne!(base, job(Workload::Fft, Scale::Test, Some(max_a)).cache_key());
        prop_assert_ne!(base, job(Workload::Sort, Scale::Small, Some(max_a)).cache_key());
        prop_assert_ne!(base, job(Workload::Sort, Scale::Test, Some(max_b)).cache_key());
        prop_assert_ne!(base, job(Workload::Sort, Scale::Test, None).cache_key());
    }
}

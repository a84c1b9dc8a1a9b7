//! `prognosis-cache` — inspect and maintain journaled observation stores.
//!
//! ```text
//! prognosis-cache stats   <store-path>   # format, checkpoint and tail sizes, entries
//! prognosis-cache verify  <store-path>   # checksums, torn tail, key hashes
//! prognosis-cache compact <store-path>   # fold the tail into checkpoints
//! ```
//!
//! `verify` exits nonzero when the store is unsound (torn tail, replay
//! contradictions, or inconsistent key hashes) or is not a journal at all,
//! so it doubles as a CI check over cache artifacts.

use prognosis_learner::journal::{JournalStore, StoreFormat};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: prognosis-cache <stats|verify|compact> <store-path>");
    ExitCode::from(2)
}

fn format_name(format: StoreFormat) -> &'static str {
    match format {
        StoreFormat::Journal => "journal",
        StoreFormat::Absent => "absent",
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, path) = match args.as_slice() {
        [command, path] => (command.as_str(), path.as_str()),
        _ => return usage(),
    };
    match command {
        "stats" => {
            let store = match JournalStore::open(path) {
                Ok(store) => store,
                Err(e) => {
                    eprintln!("prognosis-cache: cannot open {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stats = store.stats();
            println!("store:            {path}");
            println!("format:           {}", format_name(stats.format));
            println!("file bytes:       {}", stats.file_bytes);
            println!("checkpoint bytes: {}", stats.checkpoint_bytes);
            println!("tail bytes:       {}", stats.tail_bytes);
            println!("tail records:     {}", stats.tail_records);
            println!("entries:          {}", stats.entries.len());
            for entry in &stats.entries {
                println!(
                    "  ({:?}, {:?}, {} symbols, hash {:016x}): {} paths, {} terminal words, {} nodes",
                    entry.key.sul_id(),
                    entry.key.impl_version(),
                    entry.key.alphabet().len(),
                    entry.key.alphabet_hash(),
                    entry.paths,
                    entry.terminal_words,
                    entry.nodes,
                );
            }
            ExitCode::SUCCESS
        }
        "verify" => {
            let report = match JournalStore::verify(path) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("prognosis-cache: cannot verify {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("store:          {path}");
            println!("format:         {}", format_name(report.format));
            println!("sound bytes:    {}", report.sound_bytes);
            println!("torn bytes:     {}", report.torn_bytes);
            println!("contradictions: {}", report.contradictions);
            println!("bad key hashes: {}", report.inconsistent_keys.len());
            for key in &report.inconsistent_keys {
                println!(
                    "  inconsistent: ({:?}, {:?}, hash {:016x})",
                    key.sul_id(),
                    key.impl_version(),
                    key.alphabet_hash(),
                );
            }
            if report.is_clean() {
                println!("verdict:        clean");
                ExitCode::SUCCESS
            } else {
                println!("verdict:        UNSOUND");
                ExitCode::FAILURE
            }
        }
        "compact" => {
            let store = match JournalStore::open(path) {
                Ok(store) => store,
                Err(e) => {
                    eprintln!("prognosis-cache: cannot open {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let before = store.stats();
            match store.compact() {
                Ok(outcome) => {
                    let after = store.stats();
                    println!("store:            {path}");
                    println!(
                        "bytes:            {} -> {}",
                        outcome.before_bytes, outcome.after_bytes
                    );
                    println!(
                        "tail records:     {} -> {}",
                        outcome.before_records, outcome.after_records
                    );
                    println!(
                        "checkpoint bytes: {} -> {}",
                        before.checkpoint_bytes, after.checkpoint_bytes
                    );
                    println!(
                        "tail bytes:       {} -> {}",
                        before.tail_bytes, after.tail_bytes
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("prognosis-cache: compaction failed for {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

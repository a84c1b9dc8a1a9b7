//! The interned prefix trie against the string-path reference: a naive
//! map keyed by full string prefixes — the semantics every pre-interning
//! component had — must agree with the dense `SymbolId`-indexed trie on
//! arbitrary insert/mark/probe sequences: lookups, the nodes a path
//! creates past its known prefix, terminal accounting and the canonical
//! path dump.  The trie's one mutation, `apply_path_ids_along`, must
//! agree with the reference path by path — coverage class, nodes created,
//! terminal count — on random paths that include contradicting outputs,
//! length mismatches and ids the trie never assigned, and an error or a
//! contradiction must change nothing.  Rebuilding a trie from its own
//! (shuffled) path dump must also change nothing observable, proving
//! symbol-id assignment — which depends on insertion order — never leaks
//! into trie semantics.

use prognosis_automata::alphabet::Symbol;
use prognosis_automata::interner::SymbolId;
use prognosis_automata::word::{InputWord, OutputWord};
use prognosis_learner::trie::{PathCoverage, PrefixTrie};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet};

const SYMBOLS: [&str; 5] = ["syn", "ack", "fin", "rst", "δ-data"];

/// An id neither interner of a test trie ever assigns.
const UNASSIGNED: u32 = 1_000;

/// Deterministic output symbol for an input prefix, so arbitrary word sets
/// are mutually consistent (the SUL-determinism precondition).
fn output_for(prefix: &[usize]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &i in prefix {
        hash ^= i as u64 + 1;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("out-{}", hash % 8)
}

fn input_word(word: &[usize]) -> InputWord {
    word.iter().map(|&i| SYMBOLS[i % SYMBOLS.len()]).collect()
}

fn output_word(word: &[usize]) -> OutputWord {
    (1..=word.len()).map(|n| output_for(&word[..n])).collect()
}

/// The string-path reference: every cached step keyed by its full spelled-
/// out prefix, exactly the pre-interning semantics (string hashing on
/// every step, no ids anywhere).
#[derive(Default)]
struct StringPathReference {
    steps: HashMap<Vec<String>, String>,
    terminals: HashSet<Vec<String>>,
}

fn spell(word: &[usize]) -> Vec<String> {
    word.iter()
        .map(|&i| SYMBOLS[i % SYMBOLS.len()].to_string())
        .collect()
}

impl StringPathReference {
    fn insert(&mut self, word: &[usize]) {
        for depth in 1..=word.len() {
            self.steps
                .insert(spell(&word[..depth]), output_for(&word[..depth]));
        }
    }

    fn mark_terminal(&mut self, word: &[usize]) -> bool {
        self.terminals.insert(spell(word))
    }

    fn lookup(&self, word: &[usize]) -> Option<Vec<String>> {
        (1..=word.len())
            .map(|depth| self.steps.get(&spell(&word[..depth])).cloned())
            .collect()
    }

    fn known_prefix_len(&self, word: &[usize]) -> usize {
        (1..=word.len())
            .take_while(|&depth| self.steps.contains_key(&spell(&word[..depth])))
            .count()
    }

    /// What applying a path does, spelled out (`None` for a symbol the
    /// trie never assigned): its class and the steps it adds, or `None`
    /// for an error.  A contradiction or an error adds nothing.
    fn apply(
        &mut self,
        input: &[Option<String>],
        output: &[Option<String>],
        terminal: bool,
    ) -> Option<(PathCoverage, usize)> {
        if input.len() != output.len() {
            return None;
        }
        let mut prefix = Vec::new();
        for (symbol, out) in input.iter().zip(output) {
            let Some(symbol) = symbol else { break };
            prefix.push(symbol.clone());
            match self.steps.get(&prefix) {
                Some(cached) if out.as_ref() != Some(cached) => {
                    return Some((PathCoverage::Contradicts, 0));
                }
                Some(_) => {}
                None => {
                    prefix.pop();
                    break;
                }
            }
        }
        let depth = prefix.len();
        let fresh: Vec<(String, String)> = input[depth..]
            .iter()
            .zip(&output[depth..])
            .map(|(symbol, out)| Some((symbol.clone()?, out.clone()?)))
            .collect::<Option<_>>()?;
        for (symbol, out) in fresh {
            prefix.push(symbol);
            self.steps.insert(prefix.clone(), out);
        }
        let marked = terminal && self.terminals.insert(prefix);
        let class = if depth < input.len() || marked {
            PathCoverage::Fresh
        } else {
            PathCoverage::Covered
        };
        Some((class, input.len() - depth))
    }

    /// The canonical path set: terminal words plus maximal (leaf) chains,
    /// each with its output chain and terminal flag — the reference for
    /// [`PrefixTrie::paths`], compared order-independently.
    fn paths(&self) -> BTreeSet<(Vec<String>, Vec<String>, bool)> {
        let mut result = BTreeSet::new();
        // The root is a path only when the ε query was asked.
        if self.terminals.contains(&Vec::new()) {
            result.insert((Vec::new(), Vec::new(), true));
        }
        for input in self.steps.keys() {
            let is_leaf = !self.steps.keys().any(|other| {
                other.len() == input.len() + 1 && &other[..input.len()] == input.as_slice()
            });
            let terminal = self.terminals.contains(input);
            if terminal || is_leaf {
                let output = (1..=input.len())
                    .map(|depth| self.steps[&input[..depth].to_vec()].clone())
                    .collect();
                result.insert((input.clone(), output, terminal));
            }
        }
        result
    }
}

fn path_set(trie: &PrefixTrie) -> BTreeSet<(Vec<String>, Vec<String>, bool)> {
    trie.paths()
        .into_iter()
        .map(|(input, output, terminal)| {
            (
                input.iter().map(|s| s.to_string()).collect(),
                output.iter().map(|s| s.to_string()).collect(),
                terminal,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interned_trie_agrees_with_the_string_path_reference(
        words in prop::collection::vec(prop::collection::vec(0usize..5, 1..7), 1..24),
        probes in prop::collection::vec(prop::collection::vec(0usize..5, 1..8), 0..12),
        terminal_mask in any::<u32>(),
    ) {
        let mut trie = PrefixTrie::new();
        let mut reference = StringPathReference::default();
        for (index, word) in words.iter().enumerate() {
            let input = input_word(word);
            let output = output_word(word);
            trie.insert(&input, &output);
            reference.insert(word);
            if terminal_mask & (1 << (index % 32)) != 0 {
                prop_assert_eq!(
                    trie.mark_terminal(&input),
                    reference.mark_terminal(word),
                    "terminal-novelty disagreement on word {:?}", word
                );
            }
        }

        prop_assert_eq!(trie.terminal_words(), reference.terminals.len());

        for probe in words.iter().chain(probes.iter()) {
            let input = input_word(probe);
            let found = trie.lookup(&input)
                .map(|out| out.iter().map(|s| s.to_string()).collect::<Vec<_>>());
            prop_assert_eq!(
                found, reference.lookup(probe),
                "lookup disagreement on {:?}", probe
            );
            // A consistent path creates exactly its symbols past the
            // longest cached prefix.
            let mut probed = trie.clone();
            let inputs: Vec<SymbolId> = input.iter().map(|s| probed.intern_input(s)).collect();
            let outputs: Vec<SymbolId> = (output_word(probe).iter())
                .map(|s| probed.intern_output(s))
                .collect();
            let created = probe.len() - reference.known_prefix_len(probe);
            let class = if created > 0 { PathCoverage::Fresh } else { PathCoverage::Covered };
            prop_assert_eq!(
                probed.apply_path_ids_along(&inputs, &outputs, false, &mut Vec::new()),
                Ok((class, created)),
                "known-prefix disagreement on {:?}", probe
            );
        }

        prop_assert_eq!(path_set(&trie), reference.paths(), "path dumps disagree");
    }

    // Rebuilding from the path dump in a different insertion order mints
    // different symbol ids — and must change nothing observable.
    #[test]
    fn symbol_id_assignment_never_leaks_into_semantics(
        words in prop::collection::vec(prop::collection::vec(0usize..5, 1..7), 1..16),
    ) {
        let mut trie = PrefixTrie::new();
        for word in &words {
            trie.insert(&input_word(word), &output_word(word));
            trie.mark_terminal(&input_word(word));
        }
        let mut dump = trie.paths();
        dump.reverse(); // different insertion order => different id order
        let mut rebuilt = PrefixTrie::new();
        for (input, output, terminal) in &dump {
            let applied = rebuilt.apply_path(input.as_slice(), output.as_slice(), *terminal);
            prop_assert_ne!(applied.expect("own dump pairs its words"), PathCoverage::Contradicts);
        }

        prop_assert_eq!(rebuilt.terminal_words(), trie.terminal_words());
        prop_assert_eq!(rebuilt.num_nodes(), trie.num_nodes());
        prop_assert_eq!(path_set(&rebuilt), path_set(&trie));
        for word in &words {
            let input = input_word(word);
            prop_assert_eq!(rebuilt.lookup(&input), trie.lookup(&input));
            prop_assert!(rebuilt.is_terminal(&input));
        }
        // Classification is id-free too: every dumped path is covered by
        // the rebuilt trie, and a diverging output contradicts.
        for (input, output, terminal) in &dump {
            let input: Vec<_> = input.iter().cloned().collect();
            let mut output: Vec<_> = output.iter().cloned().collect();
            prop_assert_eq!(
                rebuilt.apply_path(&input, &output, *terminal),
                Ok(PathCoverage::Covered)
            );
            let last = output.len() - 1;
            output[last] = "out-of-band".into();
            prop_assert_eq!(
                rebuilt.apply_path(&input, &output, *terminal),
                Ok(PathCoverage::Contradicts)
            );
        }
        prop_assert_eq!(path_set(&rebuilt), path_set(&trie));
    }

    // The one mutation primitive against the reference, path by path, all
    // applied along one remembered walk: twist 3 gives one step a wrong
    // output, 4 a word of the wrong length, 5 an input id and 6 an output
    // id the trie never assigned.
    #[test]
    fn the_mutation_primitive_agrees_with_the_string_path_reference(
        ops in prop::collection::vec(
            (prop::collection::vec(0usize..5, 0..6), 0u8..7, any::<usize>(), any::<bool>()),
            1..32,
        ),
    ) {
        let mut trie = PrefixTrie::new();
        let mut reference = StringPathReference::default();
        let mut path = Vec::new();
        for (word, twist, at, terminal) in &ops {
            let mut input: Vec<Option<String>> = spell(word).into_iter().map(Some).collect();
            let mut output: Vec<Option<String>> =
                output_word(word).iter().map(|s| Some(s.to_string())).collect();
            let at = at % word.len().max(1);
            match twist {
                3 if !word.is_empty() => output[at] = Some(format!("wrong-{}", at % 3)),
                4 if word.is_empty() => output.push(Some("extra".to_string())),
                4 => drop(output.pop()),
                5 if !word.is_empty() => input[at] = None,
                6 if !word.is_empty() => output[at] = None,
                _ => {}
            }
            let unassigned = SymbolId::from(UNASSIGNED);
            let input_ids: Vec<SymbolId> = (input.iter())
                .map(|s| s.as_deref().map_or(unassigned, |s| trie.intern_input(&Symbol::new(s))))
                .collect();
            let output_ids: Vec<SymbolId> = (output.iter())
                .map(|s| s.as_deref().map_or(unassigned, |s| trie.intern_output(&Symbol::new(s))))
                .collect();
            let before = (trie.num_nodes(), trie.terminal_words(), trie.paths());
            let applied = trie.apply_path_ids_along(&input_ids, &output_ids, *terminal, &mut path);
            prop_assert_eq!(
                applied.as_ref().ok().copied(),
                reference.apply(&input, &output, *terminal),
                "class or nodes created on {:?} -> {:?}", input, output
            );
            if !matches!(applied, Ok((PathCoverage::Covered | PathCoverage::Fresh, _))) {
                prop_assert_eq!((trie.num_nodes(), trie.terminal_words(), trie.paths()), before);
            }
            prop_assert_eq!(trie.num_nodes(), reference.steps.len() + 1);
            prop_assert_eq!(trie.terminal_words(), reference.terminals.len());
        }
        prop_assert_eq!(path_set(&trie), reference.paths());
    }
}

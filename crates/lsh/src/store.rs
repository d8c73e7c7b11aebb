//! Binary persistence for LSH forests.
//!
//! A committed [`LshForest`] is the product of the expensive indexing
//! pass (signature generation + per-tree sorts); serializing it with
//! its trees *and* stored signatures means a cold start deserializes
//! straight into a query-ready structure with no re-hashing and no
//! re-sorting.
//!
//! Wire layout (inside one `d3l-store` container section):
//!
//! ```text
//! varint l, varint k, u8 sorted
//! l × tree:  varint entry_count, entries × { k raw label bytes,
//!                                            varint item id }
//! signatures: varint count, count × { varint item id, signature }
//! ```
//!
//! Signatures are written in ascending item-id order, one per id, so
//! the encoding of a forest is a deterministic function of its
//! contents: the in-memory arena interns equal signatures into one
//! class and orders classes by insertion and removal history, and
//! neither shows on disk. Decoding interns them again.
//! Decoding validates the structural invariants — positive tree
//! count, labels of exactly `k` bytes, one tree entry per signature
//! per tree, and sorted tree arrays when the committed flag is set —
//! so a corrupt section becomes a typed [`StoreError`], never a
//! panicking or silently-wrong forest.

use d3l_store::{Decoder, Encoder, StoreError};

use crate::banded::Signature;
use crate::forest::{FlatTree, LshForest};
use crate::hash::IdHashSet;
use crate::minhash::MinHashSignature;
use crate::randproj::BitSignature;
use crate::ItemId;

/// A signature type that can round-trip through the snapshot codec.
pub trait SignatureCodec: Sized {
    /// Append the signature to an encoder.
    fn encode_into(&self, enc: &mut Encoder);
    /// Decode one signature.
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError>;
}

impl SignatureCodec for MinHashSignature {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64s(&self.0);
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        Ok(MinHashSignature(dec.get_u64s()?))
    }
}

impl SignatureCodec for BitSignature {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_varint(self.len() as u64);
        enc.put_u64s(self.words());
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        let nbits = dec.get_varint()? as usize;
        let words = dec.get_u64s()?;
        BitSignature::from_words(words, nbits)
            .ok_or_else(|| StoreError::corrupt("bit signature word count mismatch"))
    }
}

impl<S: Signature + SignatureCodec> LshForest<S> {
    /// Serialize the forest (trees + stored signatures) for a
    /// snapshot section.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (l, k) = self.shape();
        // The arena holds distinct signatures only, but the encoding
        // writes one per id: size the buffer for that.
        let per_sig = self
            .ids()
            .next()
            .and_then(|id| self.signature_words(id))
            .map_or(0, |w| w.len() * 8 + 16);
        let mut enc = Encoder::with_capacity(self.tree_byte_size() + self.len() * per_sig + 64);
        enc.put_varint(l as u64);
        enc.put_varint(k as u64);
        enc.put_u8(self.is_committed() as u8);
        for tree in self.tree_arrays() {
            debug_assert_eq!(tree.stride(), k, "label width is the tree depth");
            enc.put_varint(tree.len() as u64);
            for (label, id) in tree.entries() {
                enc.put_raw(label);
                enc.put_varint(id);
            }
        }
        let mut ids: Vec<ItemId> = self.ids().collect();
        ids.sort_unstable();
        enc.put_varint(ids.len() as u64);
        for id in ids {
            enc.put_varint(id);
            self.signature(id)
                .expect("id came from the forest")
                .encode_into(&mut enc);
        }
        enc.into_bytes()
    }

    /// Deserialize a forest written by [`LshForest::to_bytes`],
    /// validating every structural invariant the query paths rely on.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut dec = Decoder::new(bytes);
        let l = dec.get_varint()? as usize;
        let k = dec.get_varint()? as usize;
        if l == 0 {
            return Err(StoreError::corrupt("forest with zero trees"));
        }
        let sorted = match dec.get_u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(StoreError::corrupt(format!(
                    "forest committed flag must be 0/1, found {other}"
                )))
            }
        };
        let mut trees = Vec::with_capacity(l);
        for t in 0..l {
            let count = dec.get_len(k + 1, "forest tree")?;
            let mut tree = FlatTree::new(k);
            tree.reserve(count);
            for _ in 0..count {
                let label = dec.get_raw(k, "tree label")?;
                let id = dec.get_varint()?;
                tree.push(label, id);
            }
            if sorted && !tree.is_sorted() {
                return Err(StoreError::corrupt(format!(
                    "tree {t} claims committed but is not sorted"
                )));
            }
            trees.push(tree);
        }
        let sig_count = dec.get_len(1, "forest signatures")?;
        let mut sigs: Vec<(ItemId, S)> = Vec::with_capacity(sig_count);
        let mut seen: IdHashSet<ItemId> =
            IdHashSet::with_capacity_and_hasher(sig_count, Default::default());
        for _ in 0..sig_count {
            let id = dec.get_varint()?;
            let sig = S::decode_from(&mut dec)?;
            if !seen.insert(id) {
                return Err(StoreError::corrupt(format!("duplicate signature id {id}")));
            }
            // The arena requires one shape per forest; heterogeneous
            // signatures would previously decode fine and then panic
            // at query time on the first cross-length similarity.
            if let Some((_, first)) = sigs.first() {
                if sig.words().len() != first.words().len() || sig.meta() != first.meta() {
                    return Err(StoreError::corrupt(format!(
                        "signature {id} shape differs from the forest's"
                    )));
                }
            }
            sigs.push((id, sig));
        }
        dec.expect_exhausted("forest")?;
        for (t, tree) in trees.iter().enumerate() {
            if tree.len() != sigs.len() {
                return Err(StoreError::corrupt(format!(
                    "tree {t} holds {} entries for {} signatures",
                    tree.len(),
                    sigs.len()
                )));
            }
            // Count equality is not enough: a tree entry whose id has
            // no stored signature would decode fine and then panic at
            // query time when the candidate's signature is looked up.
            for &id in tree.ids() {
                if !seen.contains(&id) {
                    return Err(StoreError::corrupt(format!(
                        "tree {t} references item {id} with no stored signature"
                    )));
                }
            }
        }
        Ok(LshForest::from_stored_parts(l, k, trees, sigs, sorted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHasher;
    use crate::randproj::RandomProjector;

    fn minhash_forest() -> LshForest<MinHashSignature> {
        let mh = MinHasher::new(64, 7);
        let mut f = LshForest::new(64, 8);
        for i in 0..12u64 {
            let toks: Vec<String> = (i..i + 20).map(|j| format!("tok{j}")).collect();
            f.insert(i * 3, mh.sign_strs(toks.iter().map(String::as_str)));
        }
        f.commit();
        f
    }

    fn bit_forest() -> LshForest<BitSignature> {
        let rp = RandomProjector::new(8, 64, 3);
        let mut f = LshForest::new(64, 8);
        for i in 0..10u64 {
            let v: Vec<f64> = (0..8).map(|d| ((i * 7 + d) % 13) as f64 - 6.0).collect();
            f.insert(i, rp.sign(&v));
        }
        f.commit();
        f
    }

    #[test]
    fn minhash_forest_round_trips() {
        let f = minhash_forest();
        let loaded = LshForest::<MinHashSignature>::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(loaded.shape(), f.shape());
        assert_eq!(loaded.len(), f.len());
        assert!(loaded.is_committed());
        assert_eq!(loaded.tree_arrays(), f.tree_arrays());
        for id in f.ids() {
            assert_eq!(loaded.signature(id), f.signature(id));
        }
        // Identical query behaviour.
        let q = f.signature(0).unwrap().clone();
        assert_eq!(loaded.query(&q, 5), f.query(&q, 5));
    }

    #[test]
    fn bit_forest_round_trips() {
        let f = bit_forest();
        let loaded = LshForest::<BitSignature>::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(loaded.tree_arrays(), f.tree_arrays());
        let q = f.signature(3).unwrap().clone();
        assert_eq!(loaded.query(&q, 4), f.query(&q, 4));
    }

    #[test]
    fn encoding_is_deterministic() {
        // HashMap iteration order varies between equal forests; the
        // encoding must not.
        let a = minhash_forest().to_bytes();
        let b = minhash_forest().to_bytes();
        assert_eq!(a, b);
    }

    /// Interning is invisible on disk: a forest whose items share
    /// signatures still writes one signature per id, and decoding
    /// then re-encoding gives back the same bytes.
    #[test]
    fn duplicate_signatures_round_trip_byte_for_byte() {
        let mh = MinHasher::new(64, 7);
        let mut f = LshForest::new(64, 8);
        for i in 0..30u64 {
            let toks: Vec<String> = (i % 4..i % 4 + 20).map(|j| format!("tok{j}")).collect();
            f.insert(i * 3, mh.sign_strs(toks.iter().map(String::as_str)));
        }
        f.commit();
        assert_eq!(
            f.signature_byte_size(),
            4 * 64 * 8,
            "four distinct signatures"
        );
        let bytes = f.to_bytes();
        let loaded = LshForest::<MinHashSignature>::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.to_bytes(), bytes);
        assert_eq!(loaded.signature_byte_size(), f.signature_byte_size());
        for id in f.ids() {
            assert_eq!(loaded.signature(id), f.signature(id));
        }
    }

    #[test]
    fn empty_forest_round_trips() {
        let f: LshForest<MinHashSignature> = LshForest::new(64, 8);
        let loaded = LshForest::<MinHashSignature>::from_bytes(&f.to_bytes()).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.shape(), (8, 8));
    }

    #[test]
    fn truncation_and_corruption_are_typed_errors() {
        let bytes = minhash_forest().to_bytes();
        for cut in 0..bytes.len() {
            match LshForest::<MinHashSignature>::from_bytes(&bytes[..cut]) {
                Err(StoreError::Truncated { .. } | StoreError::Corrupt(_)) => {}
                Err(other) => panic!("cut {cut}: unexpected error {other}"),
                Ok(_) => panic!("cut {cut}: truncated forest decoded"),
            }
        }
        // Zero trees.
        let mut enc = Encoder::new();
        enc.put_varint(0);
        enc.put_varint(8);
        enc.put_u8(1);
        assert!(matches!(
            LshForest::<MinHashSignature>::from_bytes(&enc.into_bytes()),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn unsorted_tree_claiming_committed_is_rejected() {
        let mut f = minhash_forest();
        // Swap two tree entries out of order, keep the committed flag.
        f.tree_arrays_mut()[0].swap(0, 1);
        let bytes = f.to_bytes();
        assert!(matches!(
            LshForest::<MinHashSignature>::from_bytes(&bytes),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn orphan_tree_id_is_rejected() {
        // Replace one tree entry's id with a duplicate of another:
        // counts still match the signature map, but the replaced id
        // now has no stored signature.
        let mut f = minhash_forest();
        f.tree_arrays_mut()[0].set_id(0, 999_999);
        let bytes = f.to_bytes();
        assert!(matches!(
            LshForest::<MinHashSignature>::from_bytes(&bytes),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn tree_signature_count_mismatch_is_rejected() {
        let mut f = minhash_forest();
        f.tree_arrays_mut()[2].pop();
        let bytes = f.to_bytes();
        assert!(matches!(
            LshForest::<MinHashSignature>::from_bytes(&bytes),
            Err(StoreError::Corrupt(_))
        ));
    }
}

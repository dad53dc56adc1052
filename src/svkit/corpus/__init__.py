"""Corpus manifests, utterance slicing and enrollment/evaluation splits, synthetic speakers."""

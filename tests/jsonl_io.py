"""Test helpers: write a dataset in the JSON-lines layout `data.load_jsonl` reads."""

import json

from mantra.data import INTENTS, N_INTENTS


def bits_to_intents(bits):
    """The intent names of a 7-bit label vector, in INTENTS order."""
    return [INTENTS[i] for i in range(N_INTENTS) if bits[i]]


def write_jsonl(path, dataset):
    """Serialize a DatasetSplit back to the JSON-lines layout load_jsonl reads."""
    split_tags = (("train", "train"), ("validation", "val"), ("test", "test"))
    with open(path, "w", encoding="utf-8") as fh:
        for attr, tag in split_tags:
            split = getattr(dataset, attr)
            for i, sample_id in enumerate(split.ids.tolist()):
                record = {"id": sample_id, "split": tag}
                if split.task == "classification":
                    record["features"] = split.x[i].tolist()
                    record["labels"] = bits_to_intents(split.y[i])
                else:
                    record["source"] = split.src[i, :split.src_len[i]].tolist()
                    record["target"] = split.tgt[i, :split.tgt_len[i] - 1].tolist()
                fh.write(json.dumps(record, sort_keys=True) + "\n")

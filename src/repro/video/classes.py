"""The 1000-class taxonomy recognized by the simulated classifiers.

The paper's GT-CNN (ResNet152) classifies among the 1,000 ImageNet
classes.  We reproduce a 1000-class taxonomy with named, human-readable
classes for the objects that actually dominate traffic, surveillance
and news video (Section 2.2.2 of the paper), plus a long synthetic tail
so that class-frequency CDFs, per-stream presence fractions and
inter-stream Jaccard indexes can be measured exactly as in Figure 3.
"""

from __future__ import annotations

from typing import Dict, List

NUM_CLASSES = 1000

#: Named classes that dominate the three video domains in the paper.
#: Order matters: ids are assigned in list order, then the synthetic
#: tail fills the remaining ids up to 1000.
_NAMED_CLASSES: List[str] = [
    # -- traffic-dominant classes ------------------------------------
    "car",
    "taxi",
    "pickup_truck",
    "trailer_truck",
    "delivery_van",
    "bus",
    "minibus",
    "school_bus",
    "motorcycle",
    "moped",
    "bicycle",
    "tricycle",
    "fire_engine",
    "ambulance",
    "police_van",
    "garbage_truck",
    "tow_truck",
    "tractor",
    "snowplow",
    "traffic_light",
    "street_sign",
    "parking_meter",
    "crosswalk",
    "traffic_cone",
    # -- people / surveillance-dominant classes ----------------------
    "pedestrian",
    "jogger",
    "cyclist",
    "skateboarder",
    "stroller",
    "wheelchair",
    "dog",
    "cat",
    "pigeon",
    "backpack",
    "handbag",
    "suitcase",
    "shopping_cart",
    "shopping_bag",
    "umbrella",
    "bench",
    "street_vendor_cart",
    "scooter",
    "segway",
    "delivery_robot",
    "mail_van",
    "street_lamp",
    "fountain",
    "market_stall",
    "cafe_table",
    "bollard",
    # -- news-dominant classes ---------------------------------------
    "suit",
    "necktie",
    "microphone",
    "news_desk",
    "studio_camera",
    "teleprompter",
    "podium",
    "flag",
    "banner",
    "laptop",
    "monitor",
    "television",
    "cellular_phone",
    "notebook",
    "coffee_mug",
    "water_bottle",
    "bookcase",
    "window_shade",
    "stage_light",
    "headset",
    # -- generic classes seen occasionally everywhere -----------------
    "bird",
    "squirrel",
    "horse",
    "balloon",
    "kite",
    "drone",
    "airplane",
    "helicopter",
    "boat",
    "train",
    "tram",
    "jacket",
    "hat",
    "sunglasses",
    "camera",
    "guitar",
    "drum",
    "food_truck",
    "ice_cream_cart",
    "newspaper",
]


def _build_names() -> List[str]:
    names = list(_NAMED_CLASSES)
    if len(names) != len(set(names)):
        raise ValueError("duplicate names in the curated class list")
    for i in range(len(names), NUM_CLASSES):
        names.append("imagenet_class_%04d" % i)
    return names


CLASS_NAMES: List[str] = _build_names()
_NAME_TO_ID: Dict[str, int] = {name: i for i, name in enumerate(CLASS_NAMES)}

DOMAINS = ("traffic", "surveillance", "news")

#: Head (frequent) classes per domain.  Per Section 2.2.2 a handful of
#: classes dominate each stream; these pools are what per-stream Zipf
#: heads are drawn from.  The pools intentionally overlap (e.g. cars and
#: pedestrians appear in both traffic and surveillance video) so that
#: inter-stream Jaccard indexes are moderate, as measured in the paper.
_DOMAIN_HEAD_NAMES: Dict[str, List[str]] = {
    "traffic": [
        "car",
        "taxi",
        "pickup_truck",
        "trailer_truck",
        "delivery_van",
        "bus",
        "motorcycle",
        "bicycle",
        "pedestrian",
        "traffic_light",
        "minibus",
        "cyclist",
        "garbage_truck",
        "school_bus",
        "moped",
        "ambulance",
    ],
    "surveillance": [
        "pedestrian",
        "backpack",
        "handbag",
        "bicycle",
        "dog",
        "umbrella",
        "suitcase",
        "stroller",
        "shopping_bag",
        "cyclist",
        "jogger",
        "car",
        "scooter",
        "skateboarder",
        "shopping_cart",
        "bench",
    ],
    "news": [
        "suit",
        "necktie",
        "microphone",
        "news_desk",
        "studio_camera",
        "flag",
        "laptop",
        "monitor",
        "television",
        "banner",
        "podium",
        "pedestrian",
        "cellular_phone",
        "teleprompter",
        "coffee_mug",
        "stage_light",
    ],
}


def class_name(cid: int) -> str:
    """Return the canonical name for class id ``cid``."""
    if not 0 <= cid < NUM_CLASSES:
        raise ValueError("class id %r out of range [0, %d)" % (cid, NUM_CLASSES))
    return CLASS_NAMES[cid]


def class_id(name: str) -> int:
    """Return the class id for ``name``.

    Raises ``KeyError`` for unknown names; callers that want a soft
    lookup should use :data:`CLASS_NAMES` directly.
    """
    return _NAME_TO_ID[name]


def domain_pool(domain: str) -> List[int]:
    """Head class ids for ``domain`` (traffic / surveillance / news)."""
    try:
        names = _DOMAIN_HEAD_NAMES[domain]
    except KeyError:
        raise ValueError("unknown domain %r; expected one of %s" % (domain, DOMAINS))
    return [_NAME_TO_ID[n] for n in names]


#: Tail classes are confusable within contiguous id blocks of this size.
TAIL_CONFUSION_BLOCK = 20


def _build_confusable_pools() -> List[List[int]]:
    pools: List[List[int]] = [[] for _ in range(NUM_CLASSES)]
    for domain in DOMAINS:
        members = domain_pool(domain)
        for cid in members:
            pools[cid] = sorted(set(pools[cid]) | set(members))
    for cid in range(NUM_CLASSES):
        if not pools[cid]:
            block = cid // TAIL_CONFUSION_BLOCK * TAIL_CONFUSION_BLOCK
            pools[cid] = list(range(block, min(block + TAIL_CONFUSION_BLOCK, NUM_CLASSES)))
    return pools


_CONFUSABLE_POOLS: List[List[int]] = _build_confusable_pools()


def confusable_pool(cid: int) -> List[int]:
    """Classes visually confusable with ``cid`` (including itself).

    Head classes are confusable within their domain pool(s) -- a taxi
    looks like a car looks like a pickup; tail classes within small id
    blocks.  Both the classifier confusion model and the feature-space
    geometry are built on these pools.
    """
    if not 0 <= cid < NUM_CLASSES:
        raise ValueError("class id %r out of range [0, %d)" % (cid, NUM_CLASSES))
    return list(_CONFUSABLE_POOLS[cid])


def confusable_pool_key(cid: int) -> int:
    """A stable key identifying ``cid``'s pool (its smallest member)."""
    return _CONFUSABLE_POOLS[cid][0]

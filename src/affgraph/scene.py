"""Scene/track data model: RLE masks, semantic depth maps, scene file I/O."""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np


class SceneError(Exception):
    """Raised on schema or invariant violations in scene data."""


# Each frame's depth map holds an int64 owner and a float64 depth per pixel;
# the bound admits a 3840 x 2160 frame, at 16 bytes a pixel 128 MiB a map.
MAX_FRAME_PIXELS = 2**23


def _refuse_json_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def parse_json(text: str):
    """Parse the text of a JSON file, as every JSON reader does. ``NaN``,
    ``Infinity`` and ``-Infinity`` are not JSON, so a text holding one is
    refused as it is read, and so is nesting deeper than the parser's
    recursion limit; both raise ``ValueError``."""
    try:
        return json.loads(text, parse_constant=_refuse_json_constant)
    except RecursionError as exc:
        raise ValueError("nested too deeply") from exc


TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
              type(None): "null"}


def is_json(value, kind: type) -> bool:
    """A bool is never a number, and a float field takes a finite int or float."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def require(kind: type, what: str, values) -> None:
    if {kind}.issuperset(map(type, values)) and (kind is not float
                                                 or all(map(math.isfinite, values))):
        return  # at C speed, as a scene holds tens of thousands of numbers
    for value in values:
        if not is_json(value, kind):
            raise TypeError(f"{what}: {value!r} is not {TYPE_NAMES.get(kind, kind.__name__)}")


class EntityKind(str, Enum):
    OBJECT = "object"
    HUMAN_PART = "human_part"


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in image-native coordinates (origin top-left, y down)."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if not (self.xmin < self.xmax):
            raise SceneError(f"bbox requires xmin < xmax, got {self.xmin} >= {self.xmax}")
        if not (self.ymin < self.ymax):
            raise SceneError(f"bbox requires ymin < ymax, got {self.ymin} >= {self.ymax}")

    def intersection_area(self, other: "BoundingBox") -> float:
        w = min(self.xmax, other.xmax) - max(self.xmin, other.xmin)
        h = min(self.ymax, other.ymax) - max(self.ymin, other.ymin)
        if w <= 0 or h <= 0:
            return 0.0
        return w * h


@dataclass(frozen=True)
class MaskRLE:
    """Row-major run-length encoded binary mask.

    ``runs`` alternates background/foreground run lengths and always starts
    with a background run (possibly 0).
    """

    width: int
    height: int
    runs: tuple[int, ...]

    def __post_init__(self) -> None:
        if min(self.runs, default=0) < 0:
            raise SceneError("mask runs must be non-negative")
        if sum(self.runs) != self.width * self.height:
            raise SceneError(
                f"mask runs sum to {sum(self.runs)}, expected {self.width * self.height}"
            )

    @property
    def foreground_count(self) -> int:
        return sum(self.runs[1::2])

    def to_array(self) -> np.ndarray:
        """Decode to a boolean (height, width) array."""
        flat = np.repeat(np.arange(len(self.runs)) % 2 == 1, self.runs)
        return flat.reshape(self.height, self.width)


@dataclass(frozen=True)
class DepthSample:
    """Depth readings in millimeters, one per foreground mask pixel in run order.

    ``array`` holds the same readings as a read-only numpy array, decoded once
    when the sample is checked, for the depth maps to paint from.
    """

    values: tuple[float, ...]
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        # numpy reads a bool among numbers as 1; only then look at each value
        if values.ndim != 1 or values.dtype.kind not in "iuf" \
                or ((values == 1).any() and bool in map(type, self.values)):
            raise SceneError("depth values must be numbers")
        if not ((values > 0) & (values < np.inf)).all():
            raise SceneError("depth values must be finite positive millimeters")
        values.flags.writeable = False
        object.__setattr__(self, "array", values)


@dataclass(frozen=True)
class EntityObservation:
    frame: int
    bbox: BoundingBox
    score: float
    mask: Optional[MaskRLE] = None
    depth: Optional[DepthSample] = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.score <= 1.0):
            raise SceneError(f"score must be in [0,1], got {self.score}")
        if self.mask is not None and self.depth is not None:
            if len(self.depth.values) != self.mask.foreground_count:
                raise SceneError(
                    f"frame {self.frame}: depth sample length "
                    f"{len(self.depth.values)} != mask foreground "
                    f"{self.mask.foreground_count}"
                )


@dataclass
class Entity:
    id: str
    kind: EntityKind
    observations: list[EntityObservation] = field(default_factory=list)

    def validate(self) -> None:
        frames = [o.frame for o in self.observations]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise SceneError(f"entity {self.id}: observation frames not strictly increasing")


@dataclass
class SceneSequence:
    width: int
    height: int
    frame_count: int
    fps: Optional[float] = None
    entities: list[Entity] = field(default_factory=list)

    def validate(self) -> None:
        if not (self.width >= 1 and self.height >= 1 and self.frame_count >= 0):
            raise SceneError("width and height must be >= 1 and frame_count >= 0, got "
                             f"{self.width}, {self.height} and {self.frame_count}")
        if self.width * self.height > MAX_FRAME_PIXELS:
            raise SceneError(f"a {self.width} x {self.height} frame holds more than "
                             f"{MAX_FRAME_PIXELS} pixels")
        if self.fps is not None and not 0 < self.fps < np.inf:
            raise SceneError(f"fps must be a finite number > 0 or null, got {self.fps}")
        seen: set[str] = set()
        for ent in self.entities:
            if ent.id in seen:
                raise SceneError(f"duplicate entity id {ent.id!r}")
            seen.add(ent.id)
            ent.validate()
            for obs in ent.observations:
                if not (0 <= obs.frame < self.frame_count):
                    raise SceneError(
                        f"entity {ent.id}: frame {obs.frame} outside [0, {self.frame_count})"
                    )
                bb = obs.bbox
                if bb.xmin < 0 or bb.ymin < 0 or bb.xmax > self.width or bb.ymax > self.height:
                    raise SceneError(
                        f"entity {ent.id} frame {obs.frame}: bbox outside frame dimensions"
                    )

    def objects(self) -> list[Entity]:
        return [e for e in self.entities if e.kind is EntityKind.OBJECT]

    def human_parts(self) -> list[Entity]:
        return [e for e in self.entities if e.kind is EntityKind.HUMAN_PART]


# ---------------------------------------------------------------------------
# Scene file I/O (UTF-8 JSON; see README for the schema)


_OBS_KEYS = {"frame", "bbox", "score", "mask_rle", "depth_mm"}
ROW_BREAKS = frozenset("\t\n\r")  # split a row of the tab-separated tables
_ID_BREAKS = ROW_BREAKS | {"/", "|"}


def _list(raw: dict, key: str) -> Optional[list]:
    """The list under ``key``, or None when absent or null."""
    values = raw.get(key)
    if values is not None and not isinstance(values, list):
        raise TypeError(f"{key} must be a list, got {type(values).__name__}")
    return values


def _obs_from_dict(entity_id: str, raw: dict, width: int, height: int) -> EntityObservation:
    if not isinstance(raw, dict):
        raise SceneError(f"entity {entity_id}: observation is not an object: {raw!r}")
    unknown = sorted(set(raw) - _OBS_KEYS)
    if unknown:
        raise SceneError(f"entity {entity_id}: unknown observation keys {unknown}")
    try:
        frame, score = raw["frame"], raw["score"]
        require(int, "frame", [frame])
        bb = _list(raw, "bbox")
        if bb is None or len(bb) != 4:
            raise TypeError(f"bbox must be a list of 4 numbers, got {bb!r}")
        require(float, "score and bbox", [score, *bb])
        runs = _list(raw, "mask_rle")
        if runs is not None:
            require(int, "mask_rle", runs)
        depth = _list(raw, "depth_mm")
        return EntityObservation(
            frame=frame, bbox=BoundingBox(*map(float, bb)), score=float(score),
            mask=None if runs is None else MaskRLE(width=width, height=height,
                                                   runs=tuple(runs)),
            # DepthSample checks the values' types in one numpy pass
            depth=None if depth is None else DepthSample(values=tuple(depth)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SceneError(f"entity {entity_id}: malformed observation: {exc}") from exc
    except SceneError as exc:
        raise SceneError(f"entity {entity_id}: {exc}") from exc


def scene_from_dict(data: dict) -> SceneSequence:
    try:
        width, height, frame_count = data["width"], data["height"], data["frame_count"]
        require(int, "width, height and frame_count", [width, height, frame_count])
        fps = data.get("fps")
        if fps is not None:
            require(float, "fps", [fps])
            fps = float(fps)
        entities_raw = data["entities"]
    except (KeyError, TypeError, OverflowError) as exc:
        raise SceneError(f"malformed scene header: {exc}") from exc
    if not isinstance(entities_raw, list):
        raise SceneError("malformed scene header: entities is not a list")
    entities = []
    for ent_raw in entities_raw:
        try:
            ent_id = ent_raw["id"]
            # graphlet ids join scene/anchor/partner with "/" and are the first
            # field of a tab-separated row; `relations` keys pairs "a|b"
            if type(ent_id) is not str or not _ID_BREAKS.isdisjoint(ent_id):
                raise TypeError(f"entity id {ent_id!r} is not a JSON string "
                                "without '/', '|', tab or line break")
            kind = EntityKind(ent_raw["kind"])
            observations = ent_raw.get("observations", [])
        except (KeyError, TypeError, ValueError) as exc:
            raise SceneError(f"malformed entity record: {exc}") from exc
        if not isinstance(observations, list):
            raise SceneError(f"entity {ent_id}: observations is not a list")
        obs = sorted((_obs_from_dict(ent_id, raw, width, height) for raw in observations),
                     key=lambda o: o.frame)
        entities.append(Entity(id=ent_id, kind=kind, observations=obs))
    scene = SceneSequence(
        width=width, height=height, frame_count=frame_count,
        fps=fps, entities=entities,
    )
    scene.validate()
    return scene


def scene_to_dict(scene: SceneSequence) -> dict:
    return _scene_dict(scene, lambda depth: list(depth.values))


def _scene_dict(scene: SceneSequence, depth_mm) -> dict:
    """``scene_to_dict``, with each observation's ``depth_mm`` made by
    ``depth_mm(obs.depth)`` where it has a depth sample."""
    return {
        "width": scene.width,
        "height": scene.height,
        "frame_count": scene.frame_count,
        "fps": scene.fps,
        "entities": [
            {
                "id": ent.id,
                "kind": ent.kind.value,
                "observations": [
                    {
                        "frame": obs.frame,
                        "bbox": [obs.bbox.xmin, obs.bbox.ymin, obs.bbox.xmax, obs.bbox.ymax],
                        "score": obs.score,
                        "mask_rle": list(obs.mask.runs) if obs.mask else None,
                        "depth_mm": depth_mm(obs.depth) if obs.depth else None,
                    }
                    for obs in ent.observations
                ],
            }
            for ent in scene.entities
        ],
    }


def load_scene(path: str) -> SceneSequence:
    """Load and validate a scene file; every error names the file once."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = parse_json(fh.read())
        except json.JSONDecodeError as exc:
            raise SceneError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except ValueError as exc:
            raise SceneError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return scene_from_dict(data)
    except SceneError as exc:
        raise SceneError(f"{path}: {exc}") from exc


class _JsonTexts(dict):
    """The JSON text of each ``(type, value)`` key, made on first lookup; the
    type keeps ``10`` and ``10.0`` apart, as they are equal keys."""

    def __missing__(self, key):
        text = self[key] = json.dumps(key[1])
        return text


def save_scene(scene: SceneSequence, path: str) -> None:
    """Serialize a scene canonically: the file is
    ``json.dumps(scene_to_dict(scene), sort_keys=True, separators=(",", ":"))``.

    A scene holds one depth reading per mask pixel but few distinct readings,
    and its observations often share one ``DepthSample``.  So each distinct
    value is encoded once, each distinct sample's list is joined once, and
    the lists are spliced in after each ``"depth_mm":`` of the dump.  That
    text only occurs as the key: an encoded string escapes its quotes.
    """
    data = _scene_dict(scene, lambda depth: None)
    texts = _JsonTexts()
    # keyed by id: the scene holds every sample, so no id is reused meanwhile
    lists: dict[int, str] = {}
    depths = []
    for ent in scene.entities:
        for obs in ent.observations:
            if obs.depth is None:
                depths.append(None)
                continue
            text = lists.get(id(obs.depth))
            if text is None:
                values = obs.depth.values
                text = lists[id(obs.depth)] = (
                    "[" + ",".join(map(texts.__getitem__, zip(map(type, values), values)))
                    + "]")
            depths.append(text)
    head, *tails = json.dumps(data, sort_keys=True,
                              separators=(",", ":")).split('"depth_mm":')
    for i, text in enumerate(depths):
        if text is not None:  # each tail starts with the placeholder null
            tails[i] = text + tails[i][4:]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('"depth_mm":'.join([head, *tails]))


# ---------------------------------------------------------------------------
# Semantic depth map


@dataclass
class SemanticDepthMap:
    """Per-frame pixel ownership and depth.

    ``owner`` holds the owning entity index into ``entity_ids`` or -1;
    ``depth`` holds the owner's depth reading at that pixel (0 where unowned).
    ``masks`` holds each object's decoded mask by id, and ``hand_masks`` each
    human part's in the order given (None without a mask), so that a contact
    test reads them without decoding them again.
    """

    entity_ids: list[str]
    owner: np.ndarray
    depth: np.ndarray
    masks: dict[str, np.ndarray]
    hand_masks: list[Optional[np.ndarray]]

    def owned_mask(self, entity_id: str) -> np.ndarray:
        try:
            idx = self.entity_ids.index(entity_id)
        except ValueError:
            return np.zeros_like(self.owner, dtype=bool)
        return self.owner == idx


def build_semantic_depth_map(height: int, width: int,
                             objects: Mapping[str, EntityObservation],
                             hands: Iterable[EntityObservation]) -> SemanticDepthMap:
    """Resolve one frame's overlapping masks into exclusive pixel ownership.

    ``objects`` maps each object id to its observation at the frame, and
    ``hands`` holds the frame's human-part observations.  Overlap pixels go to
    the highest-score object (ties to the lower entity id); pixels under any
    human_part mask are excluded from object ownership.  Each mask is decoded
    once, and each depth sample painted from its decoded ``array``.
    """
    owner = np.full((height, width), -1, dtype=int)
    depth = np.zeros((height, width), dtype=float)
    claims = sorted((-obs.score, eid, obs) for eid, obs in objects.items()
                    if obs.mask is not None)
    claims.reverse()  # paint lowest priority first so stronger claims overwrite
    entity_ids = [ent_id for _, ent_id, _ in claims]
    masks = {}
    for idx, (_, ent_id, obs) in enumerate(claims):
        pixels = masks[ent_id] = obs.mask.to_array()
        owner[pixels] = idx
        depth[pixels] = 0.0 if obs.depth is None else obs.depth.array
    hand_masks = [None if obs.mask is None else obs.mask.to_array() for obs in hands]
    for pixels in hand_masks:
        if pixels is not None:
            owner[pixels] = -1
            depth[pixels] = 0.0
    return SemanticDepthMap(entity_ids=entity_ids, owner=owner, depth=depth,
                            masks=masks, hand_masks=hand_masks)

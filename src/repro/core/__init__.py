"""The event bus core — the paper's primary contribution.

This package layers the SMC delivery semantics (Section II-C) over any
matching engine:

* :mod:`repro.core.events` — the event model and its wire codec;
* :mod:`repro.core.protocol` — opcodes the bus speaks inside reliable
  payloads (PUBLISH, SUBSCRIBE, DELIVER, DEVICE_DATA, ...);
* :mod:`repro.core.bus` — the bus itself: matching, per-subscriber FIFO
  dispatch, duplicate suppression, membership coupling;
* :mod:`repro.core.proxy` / :mod:`repro.core.proxies` — the proxy
  framework: every member service is represented by a proxy that owns its
  outbound queue, translates device data, and destroys itself (and the
  queue) on a Purge Member event;
* :mod:`repro.core.bootstrap` — creates the right proxy type when a New
  Member event arrives;
* :mod:`repro.core.client` — the library a full service uses to talk to
  the bus over the network;
* :mod:`repro.core.quench` — Elvin-style quenching (Section VI).
"""

from repro.core.bus import BusStats, EventBus
from repro.core.bootstrap import ProxyBootstrap
from repro.core.client import BusClient
from repro.core.events import (
    NEW_MEMBER_TYPE,
    PURGE_MEMBER_TYPE,
    Event,
    decode_event,
    encode_event,
)
from repro.core.proxies import SensorProxy, ServiceProxy
from repro.core.proxy import DeviceTranslator, Proxy
from repro.core.quench import QuenchController
from repro.core.sharding import ShardedEventBus, ShardedMatcher

__all__ = [
    "Event",
    "encode_event",
    "decode_event",
    "NEW_MEMBER_TYPE",
    "PURGE_MEMBER_TYPE",
    "EventBus",
    "BusStats",
    "ShardedEventBus",
    "ShardedMatcher",
    "Proxy",
    "DeviceTranslator",
    "ServiceProxy",
    "SensorProxy",
    "ProxyBootstrap",
    "BusClient",
    "QuenchController",
]

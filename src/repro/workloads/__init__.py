"""Workload generators: the Alexa-like web ecosystem and traffic models."""

from .alexa import Resource, Site, WebConfig, WebEcosystem, build_web_ecosystem
from .traffic import (
    ClientPopulation,
    ProbeTrain,
    attack_flows,
    client_population,
    zipf_attack_sources,
    zipf_clients,
)

__all__ = [
    "Resource",
    "Site",
    "WebConfig",
    "WebEcosystem",
    "build_web_ecosystem",
    "ClientPopulation",
    "ProbeTrain",
    "client_population",
    "zipf_attack_sources",
    "zipf_clients",
    "attack_flows",
]
